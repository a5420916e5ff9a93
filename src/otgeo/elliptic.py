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

    -Hess G = (tau / eps) E^T diag(cv m) E + tau sum_k D^T diag(cv mbar_k / g) D,

where ``E v = ds(v)`` linearizes the exponent of the interior density and
``D`` is the centred difference, assembled per step on operators cached
per grid and factored once.  Pinning ``phi`` at the nodes ``(0..1)^dim`` of
the first level (one node on odd grids) removes the Hessian's kernel, the
time-constant null modes of the centred stencil.  The line search is
Armijo on ``G``.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .grid import Grid, _dc, centred_kernel, covariant_gradient
from .transport import (
    ROUNDING,
    ReferenceMeasure,
    continuity_defect,
    dual_pair,
    dual_value,
    energy_drift,
    energy_profile,
    functional_value,
    potential_from_multiplier,
)
from .prox import SolveReport

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
            if not isinstance(value, numbers.Real) or value <= 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        for name in ("max_newton_iterations", "max_backtracks"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
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
        for name, marg in (("m0", self.m0), ("m1", self.m1)):
            marg = np.asarray(marg, dtype=float)
            if marg.shape != self.grid.space_shape:
                raise ValueError(f"{name} shape {marg.shape} != {self.grid.space_shape}")
            if np.min(marg) <= 0:
                raise ValueError(f"{name} must be strictly positive for the elliptic path")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        # G is linear along the kernel modes with these moments as slopes
        diff = (np.asarray(self.m1, float) - np.asarray(self.m0, float)) * self.grid.cell_volume
        worst = max(abs(float(np.sum(z * diff))) for z in centred_kernel(self.grid)[0])
        if worst > 1e-12:
            raise ValueError(f"the marginals' masses or null moments differ by {worst:.2e}; "
                             "pass them through align_null_moments")
        return self


@functools.lru_cache(maxsize=16)
def _operators(grid: Grid):
    """Sparse operators on the free entries of a flattened midpoint field,
    cached per grid: the time difference and the neighbour sum onto the
    interior nodes, and the centred difference along each axis.  The entries
    at ``centred_kernel``'s nodes of level 0 (the kernel's gauge) are left
    out of the columns."""
    nt, n = grid.n_time, grid.n_space
    nsp = n ** grid.dim
    space = sparse.identity(nsp, format="csr")
    d1 = sparse.csr_matrix(_dc(np.eye(n), 0, grid.h))
    if grid.dim == 1:
        axes = [d1]
    else:
        axes = [sparse.kron(d1, sparse.identity(n)), sparse.kron(sparse.identity(n), d1)]
    free = np.setdiff1d(np.arange(nt * nsp), centred_kernel(grid)[1])
    keep = sparse.identity(nt * nsp, format="csr")[:, free]
    shift = sparse.diags([-1.0, 1.0], [0, 1], shape=(nt - 1, nt))
    diff = sparse.kron(shift / grid.tau, space, format="csr") @ keep
    pair_sum = sparse.kron(abs(shift), space, format="csr")
    centred = [sparse.kron(sparse.identity(nt), d, format="csr") @ keep for d in axes]
    free.flags.writeable = False
    return free, diff, pair_sum, centred


def _evaluate(phi, problem: EllipticProblem):
    """``(G, m, w, defect, max |defect|)`` at the multiplier ``phi``; the
    pair is skipped when ``G`` overflows to ``-inf``."""
    args = (problem.m0, problem.m1, problem.reference, problem.eps, problem.grid)
    value = dual_value(phi, *args)
    if not np.isfinite(value):
        return value, None, None, None, np.inf
    m, w = dual_pair(phi, *args)
    defect = continuity_defect(m, w)
    return value, m, w, defect, float(np.max(np.abs(defect)))


def _dual_hessian(phi, m, problem: EllipticProblem):
    """``-Hess G`` at ``phi`` on the free entries (CSR); ``m`` is the pair's
    density path at ``phi``."""
    grid = problem.grid
    tau = grid.tau
    _, diff, pair_sum, centred = _operators(grid)
    cv = np.broadcast_to(grid.cell_volume, phi.shape)
    grad = covariant_gradient(phi, grid)
    lin = diff + 0.5 * (pair_sum @ sum(sparse.diags(grad[..., a].ravel()) @ d
                                       for a, d in enumerate(centred)))
    hess = (tau / problem.eps) * (lin.T @ sparse.diags((cv[1:] * m.values[1:-1]).ravel())
                                  @ lin)
    weight = (tau * cv * m.midpoints() / grid.metric).ravel()
    return (hess + sum(d.T @ sparse.diags(weight) @ d for d in centred)).tocsr()


def newton_step(phi, problem: EllipticProblem, config: EllipticConfig = None, point=None):
    """One damped Newton step; returns ``(phi_next, step_norm, point_next)``.

    ``point`` is :func:`_evaluate` at ``phi`` (computed when not given), so
    a Newton loop evaluates each point once.  A trial step of length
    ``alpha`` is accepted when ``G`` rises by ``ARMIJO alpha`` times the
    predicted rise, or, when the change in ``G`` is at rounding level, when
    the defect's max-norm falls by the factor ``1 - ARMIJO alpha``.
    """
    config = config or EllipticConfig()
    point = _evaluate(phi, problem) if point is None else point
    value, m, _, defect, residual = point
    free = _operators(problem.grid)[0]
    hess = _dual_hessian(phi, m, problem)
    rhs = (problem.grid.tau * problem.grid.cell_volume * defect).ravel()[free]
    solution = spsolve(hess.tocsc(), rhs)
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
            accept = trial_point[-1] <= (1.0 - ARMIJO * alpha) * residual
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
    u = potential_from_multiplier(phi, m.values, w.values, reference, eps, grid)
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
