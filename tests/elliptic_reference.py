"""Reference assembly of the dual Hessian, the check of ``otgeo.elliptic``'s scatter.

``dual_hessian`` builds ``-Hess G`` from sparse products of the operators
cached per grid, one product per term of the closed form; ``solve_elliptic``
scatters the same terms onto a pattern cached per grid, and the tests
compare the two.
"""

import numpy as np
from scipy import sparse

from otgeo.elliptic import _operators
from otgeo.grid import covariant_gradient, face_average


def dual_hessian(phi, m, problem):
    """``-Hess G`` at ``phi`` on the free entries (CSR); ``m`` is the pair's
    density path at ``phi``."""
    grid = problem.grid
    tau = grid.tau
    _, diff, pair_sum, forward, faces = _operators(grid)
    cv = np.broadcast_to(grid.cell_volume, phi.shape)
    fv = grid.face_volume
    grad = covariant_gradient(phi, grid)
    # d|grad phi|^2 = cell_average(2 grad D dphi) per level; s takes a quarter
    # of it from each adjacent level
    dgsq = sum(faces[a] @ sparse.diags((fv[..., a] * grad[..., a]).ravel()) @ forward[a]
               for a in range(grid.dim))
    lin = diff + 0.25 * (pair_sum @ dgsq)
    hess = (tau / problem.eps) * (lin.T @ sparse.diags((cv[1:] * m.values[1:-1]).ravel())
                                  @ lin)
    weight = tau * fv * face_average(m.midpoints(), grid) / grid.face_metric
    return (hess + sum(d.T @ sparse.diags(weight[..., a].ravel()) @ d
                       for a, d in enumerate(forward))).tocsr()
