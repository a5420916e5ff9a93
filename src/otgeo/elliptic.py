"""Dual solver: damped Newton on the closed-form discrete dual.

Minimizing the Lagrangian of the primal problem over ``(m, w)`` at a
continuity multiplier ``phi`` (one value per interval midpoint) is done in
closed form: the pair is ``transport.dual_pair`` and the minimum is
``G(phi) = transport.dual_value``.  ``G`` is smooth and concave, and its
volume-weighted gradient is ``tau`` times the pair's continuity defect, so
maximizing ``G`` solves the discrete optimality system (continuity plus a
backward Hamilton-Jacobi equation with source ``eps log m``) in
conservative form, with the marginals entering exactly.

Newton runs from ``phi = 0`` on

    -Hess G = (tau / eps) E^T diag(cv m) E + tau sum_k D^T diag(fv M_k / g_f) D,

where ``E v = ds(v)`` linearizes the exponent of the interior density,
``D`` is the forward difference onto the cell faces and ``M_k`` the face
density.  The products are expanded once per grid into terms on a fixed
sparse pattern, so each step only scatters the current weights onto it;
the Hessian is factored once per step by banded Cholesky (time levels in
turn, each ring folded along every spatial axis, lower band width
``n + 4`` in 1-D and ``n^2 + 4 n`` in 2-D).  The Hessian's kernel is the
space-time constants, so pinning ``phi`` at one node removes it.  The line
search is Armijo on ``G``.  The marginals may have empty cells: every face
density ``M_k`` touches an interior node, whose density is positive.

SciPy is imported inside the functions that use it, so that importing the
package, or running only the primal route, loads numpy alone.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .grid import Grid, covariant_gradient, face_average
from .transport import (
    ROUNDING,
    ReferenceMeasure,
    _dual_minimizer,
    check_marginals,
    continuity_defect,
    dual_pair,
    dual_value,
    energy_drift,
    energy_profile,
    functional_value,
    potential_from_multiplier,
)
from .prox import SolveReport, _positive_real

# Armijo's sufficient-increase fraction, also the defect decrease a step
# needs when the change in G is at rounding level
ARMIJO = 1e-4


class EllipticError(Exception):
    """Newton failure; carries the last multiplier ``phi`` and the per-step
    histories of the defect's max-norm and of ``G``.  ``delta`` is always
    ``None``: there is no continuation parameter."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.delta = None
        self.iterate = iterate
        self.residual_history = None
        self.objective_history = None


@dataclass
class EllipticConfig:
    newton_tolerance: float = 1e-9
    max_newton_iterations: int = 60
    max_backtracks: int = 30
    linear_tolerance: float = 1e-10

    def validate(self):
        for name in ("newton_tolerance", "linear_tolerance"):
            value = getattr(self, name)
            if not _positive_real(value):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name in ("max_newton_iterations", "max_backtracks"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        return self


@dataclass
class EllipticProblem:
    """One instance of the discrete dual problem."""

    grid: Grid
    reference: ReferenceMeasure
    eps: float
    m0: np.ndarray
    m1: np.ndarray

    def validate(self):
        """``ValueError`` for a non-finite or negative cell, a mass off 1 or
        an ``eps`` that is not finite and positive; keeps the marginals as
        the float arrays of ``check_marginals``."""
        self.m0, self.m1 = check_marginals(self.m0, self.m1, self.grid)
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")
        return self


@functools.lru_cache(maxsize=16)
def _operators(grid: Grid):
    """Sparse operators on the free entries of a flattened midpoint field,
    cached per grid: the time difference and the neighbour sum onto the
    interior nodes, and per axis the forward difference onto the faces and
    the sum over each cell's two faces per cell volume.  Entry 0, node 0 of
    level 0 (the constants' gauge), is left out of the columns."""
    from scipy import sparse

    nt, n = grid.n_time, grid.n_space
    nsp = n ** grid.dim
    space = sparse.identity(nsp, format="csr")
    up = sparse.csr_matrix(np.roll(np.eye(n), 1, axis=1))       # (up u)_i = u_{i+1}
    eye = sparse.identity(n, format="csr")

    def axes(matrix):
        """``matrix`` along each spatial axis, on every time level."""
        per_axis = [matrix] if grid.dim == 1 else [sparse.kron(matrix, eye), sparse.kron(eye, matrix)]
        return [sparse.kron(sparse.identity(nt), a, format="csr") for a in per_axis]

    free = np.arange(1, nt * nsp)
    keep = sparse.identity(nt * nsp, format="csr")[:, free]
    shift = sparse.diags([-1.0, 1.0], [0, 1], shape=(nt - 1, nt))
    diff = sparse.kron(shift / grid.tau, space, format="csr") @ keep
    pair_sum = sparse.kron(abs(shift), space, format="csr")
    forward = [d @ keep for d in axes((up - eye) / grid.h)]
    per_volume = sparse.diags(np.tile(1.0 / grid.cell_volume.ravel(), nt))
    faces = [per_volume @ s for s in axes(eye + up.T)]
    free.flags.writeable = False
    return free, diff, pair_sum, forward, faces


def _evaluate(phi, problem: EllipticProblem):
    """``(G, m, w, defect, max |defect|)`` at the multiplier ``phi``; the
    pair is skipped when ``G`` overflows to ``-inf``."""
    args = (problem.m0, problem.m1, problem.reference, problem.eps, problem.grid)
    minimizer = _dual_minimizer(phi, *args[2:])
    value = dual_value(phi, *args, minimizer)
    if not np.isfinite(value):
        return value, None, None, None, np.inf
    m, w = dual_pair(phi, *args, minimizer)
    defect = continuity_defect(m, w)
    return value, m, w, defect, float(np.max(np.abs(defect)))


def _expand(left_cols, right_rows):
    """The terms of ``left @ diag(v) @ right`` for sparse factors given by
    the column indices of ``left``'s entries and the row indices of
    ``right``'s: per term the entry of ``left`` and the entry of ``right``
    it multiplies, and its index into ``v``."""
    order = np.argsort(right_rows, kind="stable")
    count = np.bincount(right_rows, minlength=max(left_cols.max(), right_rows.max()) + 1)
    reps = count[left_cols]
    left_term = np.repeat(np.arange(left_cols.size), reps)
    offset = np.arange(left_term.size) - np.repeat(np.cumsum(reps) - reps, reps)
    right_term = order[(np.cumsum(count) - count)[left_cols[left_term]] + offset]
    return left_term, right_term, left_cols[left_term]


def _pattern(rows, cols, shape):
    """The CSR pattern ``(indptr, indices)`` holding the entries ``(rows, cols)``,
    and each entry's position in it; the keys are int64, past 2^31 beyond 46 340 unknowns."""
    keys, land = np.unique(rows.astype(np.int64) * shape[1] + cols, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    return indptr.astype(np.int32), (keys % shape[1]).astype(np.int32), land


@functools.lru_cache(maxsize=16)
def _hessian_plan(grid: Grid):
    """How ``-Hess G`` is scattered onto a CSR pattern fixed per grid.

    With ``D`` the axes' forward differences stacked, ``L = pair_sum faces / 4``
    and ``g = fv grad phi``, the Hessian is ``lin^T diag(c) lin + D^T diag(W) D``
    with ``lin = diff + L diag(g) D``, ``c = (tau / eps) cv m`` at the
    interior nodes and ``W = tau fv M / g_f``.  Each of the three products
    is expanded once into terms; per term the plan keeps where it lands,
    its two factors (their entries in ``lin``, or their product where both
    are constant) and its index into ``g``, ``c`` or ``W``.  It also keeps
    where the lower triangle lands in LAPACK band storage of a time-major
    order with each level's ring folded along every spatial axis, whose
    lower band width is ``n + 4`` in 1-D (``2 n - 1`` in the natural order,
    because of the wrap) and ``n^2 + 4 n`` in 2-D.  Every array of the plan
    is read-only, since the plan is cached and its index arrays back every
    Hessian."""
    from scipy import sparse

    free, diff, pair_sum, forward, faces = _operators(grid)
    stack = sparse.vstack(forward, format="coo")
    # d|grad phi|^2 = cell_average(2 grad D dphi) per level; s takes a quarter
    # of it from each adjacent level
    left = (0.25 * pair_sum @ sparse.hstack(faces)).tocoo()
    fixed = diff.tocoo()
    a, b, k = _expand(left.col, stack.row)
    lin_indptr, lin_cols, land = _pattern(np.concatenate([fixed.row, left.row[a]]),
                                          np.concatenate([fixed.col, stack.col[b]]), diff.shape)
    lin_base = np.bincount(land[:fixed.nnz], fixed.data, minlength=lin_cols.size)
    lin = (land[fixed.nnz:], left.data[a] * stack.data[b], k)

    lin_rows = np.repeat(np.arange(diff.shape[0]), np.diff(lin_indptr))
    a, b, k = _expand(lin_rows, lin_rows)
    p, q, j = _expand(stack.row, stack.row)
    size = (free.size, free.size)
    indptr, indices, land = _pattern(np.concatenate([lin_cols[a], stack.col[p]]),
                                     np.concatenate([lin_cols[b], stack.col[q]]), size)
    density = (land[:a.size], a, b, k)
    kinetic = (land[a.size:], stack.data[p] * stack.data[q], j)

    # level by level, each ring folded (cells 0, n-1, 1, n-2, ...) along every
    # axis, so cells up to two apart on a ring, across the wrap too, lie at
    # most 4 places apart in the fold; the gauge node, dropped, comes first
    n = grid.n_space
    fold = np.minimum(2 * np.arange(n), 2 * (n - np.arange(n)) - 1)
    rank = np.arange(grid.n_time)
    for _ in range(grid.dim):
        rank = n * rank[..., None] + fold
    rank = rank.ravel()[free] - 1
    rows = rank[np.repeat(np.arange(free.size), np.diff(indptr))]
    cols = rank[indices]
    lower = np.flatnonzero(rows >= cols)
    below = rows[lower] - cols[lower]
    position = below * free.size + cols[lower]
    order = np.argsort(rank)
    for array in (lin_base, *lin, *density, *kinetic, indptr, indices, lower, position, order, rank):
        array.flags.writeable = False
    band = (lower, position, (below.max() + 1, free.size), order, rank)
    return lin_base, lin, density, kinetic, indptr, indices, band


def _dual_hessian(phi, m, problem: EllipticProblem):
    """``-Hess G`` at ``phi`` on the free entries (CSR, on the pattern of
    :func:`_hessian_plan`); ``m`` is the pair's density path at ``phi``."""
    from scipy import sparse

    grid = problem.grid
    lin_base, lin, density, kinetic, indptr, indices, _ = _hessian_plan(grid)
    fv = grid.face_volume
    cv = np.broadcast_to(grid.cell_volume, phi.shape)
    # the face fields axis by axis, as the differences are stacked
    g = np.moveaxis(fv * covariant_gradient(phi, grid), -1, 0).ravel()
    weight = grid.tau * fv * face_average(m.midpoints(), grid) / grid.face_metric
    weight = np.moveaxis(weight, -1, 0).ravel()
    c = (grid.tau / problem.eps) * (cv[1:] * m.values[1:-1]).ravel()

    land, coefficient, k = lin
    lin_values = lin_base + np.bincount(land, coefficient * g[k], minlength=lin_base.size)
    land, a, b, k = density
    data = np.bincount(land, lin_values[a] * lin_values[b] * c[k], minlength=indices.size)
    land, coefficient, k = kinetic
    data += np.bincount(land, coefficient * weight[k], minlength=indices.size)
    size = indptr.size - 1
    return sparse.csr_matrix((data, indices, indptr), shape=(size, size))


def _banded_solve(hess, rhs, band):
    """``hess^-1 rhs`` by Cholesky of the band that :func:`_hessian_plan`
    keeps; ``LinAlgError`` when ``hess`` is not positive definite."""
    from scipy.linalg import solveh_banded

    lower, position, shape, order, rank = band
    banded = np.zeros(shape)
    banded.flat[position] = hess.data[lower]
    return solveh_banded(banded, rhs[order], overwrite_ab=True, lower=True,
                         check_finite=False)[rank]


def newton_step(phi, problem: EllipticProblem, config: EllipticConfig = None, point=None):
    """One damped Newton step; returns ``(phi_next, step_norm, point_next)``.

    ``point`` is :func:`_evaluate` at ``phi`` (computed when not given), so
    a Newton loop evaluates each point once.  A trial step of length
    ``alpha`` is accepted when ``G`` rises by ``ARMIJO alpha`` times the
    predicted rise, or, when the change in ``G`` is at rounding level, when
    the defect's max-norm falls by the factor ``1 - ARMIJO alpha`` or lies
    below ``ROUNDING max(m) / tau``, the rounding level of its time
    difference.
    """
    from scipy.linalg import LinAlgError

    config = config or EllipticConfig()
    point = _evaluate(phi, problem) if point is None else point
    value, m, _, defect, residual = point
    if not np.isfinite(value):
        raise EllipticError(f"G is not finite at the Newton point ({value})", iterate=phi)
    free = _operators(problem.grid)[0]
    hess = _dual_hessian(phi, m, problem)
    rhs = (problem.grid.tau * problem.grid.cell_volume * defect).ravel()[free]
    try:
        solution = _banded_solve(hess, rhs, _hessian_plan(problem.grid)[-1])
    except LinAlgError as err:
        raise EllipticError(f"linear solve failed ({err})", iterate=phi) from err
    lin_res = np.linalg.norm(hess @ solution - rhs)
    limit = config.linear_tolerance * np.linalg.norm(rhs)
    if not lin_res <= limit:
        # allow for rounding noise of the matrix-vector check itself
        noise = 1e-13 * abs(hess).sum(axis=1).max() * max(np.linalg.norm(solution), 1.0)
        if not lin_res <= limit + noise:
            raise EllipticError(f"linear solve stalled (residual {lin_res:.2e})", iterate=phi)
    step = np.zeros(phi.size)
    step[free] = solution
    step = step.reshape(phi.shape)
    slope = float(rhs @ solution)
    alpha = 1.0
    for _ in range(config.max_backtracks):
        trial = phi + alpha * step
        trial_point = _evaluate(trial, problem)
        rise = trial_point[0] - value
        if abs(rise) <= ROUNDING * (1.0 + abs(value)):
            # the defect must fall, unless it is at the rounding level of its
            # time difference, where a step cannot lower it further
            floor = ROUNDING * np.max(trial_point[1].values) / problem.grid.tau
            accept = trial_point[-1] <= max((1.0 - ARMIJO * alpha) * residual, floor)
        else:
            accept = rise >= ARMIJO * alpha * slope
        if accept:
            return trial, float(np.max(np.abs(alpha * step))), trial_point
        alpha *= 0.5
    raise EllipticError(f"Armijo backtracking failed (residual {residual:.3e})", iterate=phi)


def solve_elliptic(problem: EllipticProblem, config: EllipticConfig = None):
    """Maximize the discrete dual; returns ``(Potential, DensityPath, SolveReport)``.

    Newton runs from ``phi = 0`` until the continuity defect of the pair
    ``(m(phi), w(phi))`` is below ``newton_tolerance`` in the max-norm; that
    value is ``final_residual``.  ``objective`` is ``F_eps`` at the pair and
    ``duality_gap`` the defect of the duality identity of ``u``; the pair is
    feasible only to ``final_residual``, so ``certified_gap`` stays unset.
    ``residual_history`` and ``objective_history`` hold the defect's
    max-norm and ``G`` at the start and after every step, and
    ``multiplier`` the final ``phi``.  Raises ``EllipticError`` with the
    last ``phi`` and both histories when Newton fails.
    """
    config = (config or EllipticConfig()).validate()
    problem.validate()
    grid = problem.grid
    t0 = time.perf_counter()

    phi = np.zeros((grid.n_time,) + grid.space_shape)
    point = _evaluate(phi, problem)
    values, residuals = [point[0]], [point[-1]]
    try:
        while residuals[-1] >= config.newton_tolerance:
            if len(residuals) > config.max_newton_iterations:
                raise EllipticError(f"Newton did not converge in {config.max_newton_iterations} "
                                    f"steps (residual {residuals[-1]:.3e})", iterate=phi)
            phi, _, point = newton_step(phi, problem, config, point)
            values.append(point[0])
            residuals.append(point[-1])
    except EllipticError as err:
        err.residual_history, err.objective_history = np.array(residuals), np.array(values)
        raise

    _, m, w, _, _ = point
    reference, eps = problem.reference, problem.eps
    u = potential_from_multiplier(phi, m.values, reference, eps, grid)
    objective = functional_value(m, w, reference, eps)
    cross = u.cross_pairing(m.values[0], m.values[-1])
    drift = energy_drift(energy_profile(m, u, reference, eps))

    report = SolveReport(
        iterations=len(residuals) - 1,
        final_residual=residuals[-1],
        consensus_gap=0.0,
        duality_gap=abs(cross - objective),
        objective=objective,
        energy_drift=drift,
        wall_time=time.perf_counter() - t0,
        residual_history=np.array(residuals),
        objective_history=np.array(values),
        multiplier=phi,
        converged=True,
    )
    return u, m, report
