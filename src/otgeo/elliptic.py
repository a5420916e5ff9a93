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
density.  Both are a fixed stencil: row ``(j, i)`` of ``E`` has entries at
cells ``i`` and ``i +- e_a`` of levels ``j - 1`` and ``j``, and each face
joins two cells.  A plan cached per grid keeps where the product of each
pair of a row's entries, and each face term, lands in LAPACK band
storage, so a step writes the Hessian straight into its band with one
``bincount`` and factors it by banded Cholesky (time levels in turn, each
ring folded along every spatial axis, lower band width ``n + 4`` in 1-D
and ``n^2 + 4 n`` in 2-D); the solution is checked by applying the
Hessian matrix-free.  The Hessian's kernel is the space-time constants,
so pinning ``phi`` at one node removes it.  The line search is Armijo on
``G``.  The marginals may have empty cells: every face density ``M_k``
touches an interior node, whose density is positive.

SciPy's ``linalg`` is imported inside :func:`newton_step`, so that
importing the package, or running only the primal route, loads numpy
alone.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid, covariant_gradient, divergence_g, face_average
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
# halvings of a Newton step before the line search gives up
MAX_BACKTRACKS = 30
# the Newton system's residual bound, relative to its right-hand side
LINEAR_TOLERANCE = 1e-10


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

    def validate(self):
        if not _positive_real(self.newton_tolerance):
            raise ValueError("newton_tolerance must be a finite positive number, "
                             f"got {self.newton_tolerance!r}")
        value = self.max_newton_iterations
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
            raise ValueError(f"max_newton_iterations must be an integer >= 1, got {value!r}")
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


class _Plan(NamedTuple):
    """Where the terms of ``-Hess G`` land in band storage on one grid."""

    columns: np.ndarray    # per entry of E's rows, its unknown's index
    positions: np.ndarray  # per term, its flat index into the band
    shape: tuple           # the band's (lower width + 1, unknowns)
    rank: np.ndarray       # per midpoint node, its unknown's index
    order: np.ndarray      # per unknown, its midpoint node


def _rows(center, neighbours):
    """The entries of each row ``(j, i)`` of ``E``, from fields on the
    levels: ``center`` at cell ``i`` and per axis the pair
    ``neighbours[a]`` at ``i + e_a`` and ``i - e_a``, first on level
    ``j - 1``, then on level ``j``; shape ``(entries, rows)``."""
    level = np.stack([center, *(field for pair in neighbours for field in pair)])
    return np.concatenate([level[:, :-1], level[:, 1:]]).reshape(2 * len(level), -1)


@functools.lru_cache(maxsize=16)
def _hessian_plan(grid: Grid):
    """Where each term of ``-Hess G`` lands in LAPACK lower band storage.

    The unknowns are the midpoint nodes but node 0 of level 0, the
    constants' gauge, in a time-major order with each level's ring folded
    (cells 0, n-1, 1, n-2, ...) along every spatial axis, so cells up to
    two apart on a ring, across the wrap too, lie at most 4 places apart:
    the lower band width is ``n + 4`` in 1-D (``2 n - 1`` in the natural
    order, because of the wrap) and ``n^2 + 4 n`` in 2-D.  The terms are
    the products of each pair ``p <= q`` of a row's entries, then per face
    the three of ``D^T D``: the diagonal at either end and their coupling.
    The gauge's index is the number of unknowns, and a term that touches it
    lands in one spare slot past the band.  The band is stored by columns,
    as LAPACK reads it.  Every array is read-only, since the plan is
    cached and backs every Hessian."""
    n, axes = grid.n_space, range(1, grid.dim + 1)
    fold = np.minimum(2 * np.arange(n), 2 * (n - np.arange(n)) - 1)
    rank = np.arange(grid.n_time)
    for _ in axes:
        rank = n * rank[..., None] + fold
    size = rank.size - 1
    rank = (rank - 1) % (size + 1)          # the gauge, first in the fold, goes last
    columns = _rows(rank, [(np.roll(rank, -1, a), np.roll(rank, 1, a)) for a in axes])
    p, q = np.triu_indices(len(columns))
    # each face joins a cell and the next one along the face's axis
    cell = np.stack([rank for _ in axes]).ravel()
    after = np.stack([np.roll(rank, -1, a) for a in axes]).ravel()
    first = np.concatenate([columns[p].ravel(), cell, after, cell])
    second = np.concatenate([columns[q].ravel(), cell, after, after])
    low, below = np.minimum(first, second), np.abs(first - second)
    gauge = np.maximum(first, second) == size
    width = int(below[~gauge].max()) + 1
    positions = np.where(gauge, size * width, low * width + below)
    order = np.argsort(rank.ravel())[:size]
    plan = _Plan(columns, positions, (width, size), rank.ravel(), order)
    for array in (columns, positions, plan.rank, order):
        array.flags.writeable = False
    return plan


def _hessian_terms(phi, m, problem: EllipticProblem):
    """What ``-Hess G`` at ``phi`` is made of: the entries of ``E`` laid out
    by :func:`_rows`, the weight ``(tau / eps) cv m`` of each row and the
    face density times ``tau``; ``m`` is the pair's density path at ``phi``.

    Per level, ``d|grad phi|^2`` moves the quarter-flux
    ``q = fv grad phi / (4 h)`` into each cell through its faces, and ``s``
    takes a quarter of it from each adjacent level."""
    grid = problem.grid
    cv = grid.cell_volume
    q = grid.face_volume * covariant_gradient(phi, grid) / (4.0 * grid.h)
    neighbours = [(q[..., a] / cv, -np.roll(q[..., a], 1, a + 1) / cv) for a in range(grid.dim)]
    entries = _rows(-sum(up + down for up, down in neighbours), neighbours)
    entries[0] -= 1.0 / grid.tau
    entries[len(entries) // 2] += 1.0 / grid.tau
    weight = (grid.tau / problem.eps) * (cv * m.values[1:-1]).ravel()
    return entries, weight, grid.tau * face_average(m.midpoints(), grid)


def _band(terms, plan: _Plan, grid: Grid):
    """``-Hess G`` in the band storage of :func:`_hessian_plan`, written from
    :func:`_hessian_terms` with one ``bincount``."""
    entries, weight, face = terms
    p, q = np.triu_indices(len(entries))
    kinetic = np.moveaxis(face * grid.face_volume / (grid.face_metric * grid.h ** 2), -1, 0).ravel()
    values = np.concatenate([(weight * entries[p] * entries[q]).ravel(), kinetic, kinetic, -kinetic])
    size = math.prod(plan.shape)
    band = np.bincount(plan.positions, values, minlength=size + 1)[:size]
    return band.reshape(plan.shape[::-1]).T


def _apply(terms, x, plan: _Plan, grid: Grid):
    """``-Hess G x`` for ``x`` on the unknowns, matrix-free: ``E`` from the
    entries of :func:`_hessian_terms`, the face part as
    ``-cv div_g(tau M grad x)`` by the grid's stencils."""
    entries, weight, face = terms
    x = np.append(x, 0.0)                   # the gauge
    flux = weight * np.einsum("er,er->r", entries, x[plan.columns])
    out = np.bincount(plan.columns.ravel(), (entries * flux).ravel(), minlength=x.size)
    field = x[plan.rank].reshape(face.shape[:-1])
    kinetic = -grid.cell_volume * divergence_g(face * covariant_gradient(field, grid), grid)
    return out[:-1] + kinetic.ravel()[plan.order]


def _max_row_sum(band):
    """The largest absolute row sum of the symmetric matrix whose lower band is ``band``."""
    band = np.abs(band)
    sums = band.sum(axis=0)                 # each column on and below the diagonal
    for below in range(1, band.shape[0]):
        sums[below:] += band[below, :-below]
    return sums.max()


def newton_step(phi, problem: EllipticProblem, point=None):
    """One damped Newton step; returns ``(phi_next, step_norm, point_next)``.

    ``point`` is :func:`_evaluate` at ``phi`` (computed when not given), so
    a Newton loop evaluates each point once.  The Newton system is solved
    by banded Cholesky and checked matrix-free to ``LINEAR_TOLERANCE``.  A
    trial step of length ``alpha`` is accepted when ``G`` rises by
    ``ARMIJO alpha`` times the predicted rise, or, when the change in ``G``
    is at rounding level, when the defect's max-norm falls by the factor
    ``1 - ARMIJO alpha`` or lies below ``ROUNDING max(m) / tau``, the
    rounding level of its time difference.
    """
    from scipy.linalg import LinAlgError, solveh_banded

    point = _evaluate(phi, problem) if point is None else point
    value, m, _, defect, residual = point
    if not np.isfinite(value):
        raise EllipticError(f"G is not finite at the Newton point ({value})", iterate=phi)
    grid = problem.grid
    plan = _hessian_plan(grid)
    terms = _hessian_terms(phi, m, problem)
    rhs = (grid.tau * grid.cell_volume * defect).ravel()[plan.order]
    try:
        solution = solveh_banded(_band(terms, plan, grid), rhs, overwrite_ab=True, lower=True,
                                 check_finite=False)
    except LinAlgError as err:
        raise EllipticError(f"linear solve failed ({err})", iterate=phi) from err
    lin_res = np.linalg.norm(_apply(terms, solution, plan, grid) - rhs)
    limit = LINEAR_TOLERANCE * np.linalg.norm(rhs)
    if not lin_res <= limit:
        # allow for rounding noise of the matrix-vector check itself; the
        # solve overwrote the band, so it is written again
        noise = 1e-13 * _max_row_sum(_band(terms, plan, grid)) * max(np.linalg.norm(solution), 1.0)
        if not lin_res <= limit + noise:
            raise EllipticError(f"linear solve stalled (residual {lin_res:.2e})", iterate=phi)
    step = np.append(solution, 0.0)[plan.rank].reshape(phi.shape)
    slope = float(rhs @ solution)
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
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
            phi, _, point = newton_step(phi, problem, point)
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
