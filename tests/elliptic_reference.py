"""Reference assembly of the dual Hessian, the check of ``otgeo.elliptic``'s band.

``dual_hessian`` builds ``-Hess G`` from sparse products of operators it
builds itself from the grid's definitions, one product per term of the
closed form; ``solve_elliptic`` writes the same Hessian into band storage
from a stencil plan, and the tests compare the two.
"""

import numpy as np
from scipy import sparse


def operators(grid):
    """Sparse operators on a flattened midpoint field: the time difference
    and the neighbour sum onto the interior nodes, and per axis the forward
    difference onto the faces and the face average of the cells."""
    nt, n = grid.n_time, grid.n_space
    nsp = n ** grid.dim
    up = sparse.csr_matrix(np.roll(np.eye(n), 1, axis=1))       # (up u)_i = u_{i+1}
    eye = sparse.identity(n, format="csr")

    def axes(matrix):
        """``matrix`` along each spatial axis, on every time level."""
        per_axis = [matrix] if grid.dim == 1 else [sparse.kron(matrix, eye), sparse.kron(eye, matrix)]
        return [sparse.kron(sparse.identity(nt), a, format="csr") for a in per_axis]

    shift = sparse.diags([-1.0, 1.0], [0, 1], shape=(nt - 1, nt))
    diff = sparse.kron(shift / grid.tau, sparse.identity(nsp), format="csr")
    pair_sum = sparse.kron(abs(shift), sparse.identity(nsp), format="csr")
    return diff, pair_sum, axes((up - eye) / grid.h), [0.5 * a for a in axes(eye + up)]


def dual_hessian(phi, m, problem):
    """``-Hess G`` at ``phi`` on the free nodes, all but node 0 of level 0
    (the constants' gauge), in their natural order (CSR); ``m`` is the
    pair's density path at ``phi``."""
    grid = problem.grid
    tau = grid.tau
    diff, pair_sum, forward, average = operators(grid)
    cv = np.tile(grid.cell_volume.ravel(), grid.n_time)
    midpoints = m.midpoints().ravel()
    dgsq, kinetic = 0, 0
    for a, d in enumerate(forward):
        fv, gf = (np.tile(x[..., a].ravel(), grid.n_time) for x in (grid.face_volume, grid.face_metric))
        # |grad phi|^2 = A^T (fv (D phi)^2 / g_f) / cv per level (metric_norm_sq),
        # with A the face average, so its derivative is 2 A^T diag(fv D phi / g_f) D / cv
        dgsq = dgsq + sparse.diags(2.0 / cv) @ average[a].T @ sparse.diags(fv * (d @ phi.ravel()) / gf) @ d
        kinetic = kinetic + d.T @ sparse.diags(tau * fv * (average[a] @ midpoints) / gf) @ d
    # s takes a quarter of d|grad phi|^2 from each adjacent level
    lin = (diff + 0.25 * (pair_sum @ dgsq))[:, 1:]
    c = (tau / problem.eps) * (np.broadcast_to(grid.cell_volume, phi.shape)[1:] * m.values[1:-1])
    return (lin.T @ sparse.diags(c.ravel()) @ lin + kinetic[1:, 1:]).tocsr()
