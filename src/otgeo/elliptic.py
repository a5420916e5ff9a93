"""Dual solver: Newton continuation on the quasilinear space-time equation.

Eliminating the density from the coupled optimality system through
``m = exp(-V) exp((-d_t u + |grad u|^2 / 2) / eps)`` leaves a single
quasilinear equation for the adjoint state on the space-time cylinder,

    -u_tt + 2 <grad u, grad u_t>_g - (Hess u)(grad u, grad u)
          - eps Lap_g u + eps <grad u, grad V>_g + rho u = 0,

elliptic (not uniformly) in (t, x).  The endpoint marginals enter through
penalized boundary rows carrying a ``delta u`` term that pins the additive
gauge; the solver drives ``delta`` from 1 down to a small final value with
geometric halving and warm-started damped Newton steps, then recovers the
density from the exponential formula.

Interior stencils are centered second order (compact three-point second
derivatives, so the linearized operator has no spurious null modes); the
time derivative in the boundary rows is one-sided second order.  On the
conformal circle the Hessian includes the Christoffel correction
``-g_x/(2g) u_x``.

Each Newton step solves with the exact sparse Jacobian.  Its index pattern
and SuperLU's fill-reducing column order depend on the grid alone, so both
are built once per grid and cached; a step computes the Jacobian's values
as whole-array stencil coefficients and factors them in the cached order.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .grid import Grid, covariant_gradient, integrate, metric_dot, metric_norm_sq, _dc
from .transport import (
    DensityPath,
    Potential,
    ReferenceMeasure,
    dual_momentum,
    energy_profile,
    functional_value,
)
from .prox import SolveReport


class EllipticError(Exception):
    """Newton/continuation failure; carries the last convergent state."""

    def __init__(self, message, delta=None, iterate=None):
        super().__init__(message)
        self.delta = delta
        self.iterate = iterate


@dataclass
class EllipticConfig:
    newton_tolerance: float = 1e-9
    max_newton_iterations: int = 60
    max_backtracks: int = 30
    delta_start: float = 1.0
    delta_final: float = 1e-6
    max_bisections: int = 6
    linear_tolerance: float = 1e-10

    def validate(self):
        for name in ("newton_tolerance", "delta_start", "delta_final", "linear_tolerance"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or value <= 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        for name, least in (("max_newton_iterations", 1), ("max_backtracks", 1),
                            ("max_bisections", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        return self


@dataclass
class EllipticProblem:
    """One instance of the penalized boundary-value problem."""

    grid: Grid
    reference: ReferenceMeasure
    eps: float
    m0: np.ndarray
    m1: np.ndarray
    delta: float = 1.0
    rho: float = 0.0

    def validate(self):
        for name, marg in (("m0", self.m0), ("m1", self.m1)):
            marg = np.asarray(marg, dtype=float)
            if marg.shape != self.grid.space_shape:
                raise ValueError(f"{name} shape {marg.shape} != {self.grid.space_shape}")
            if np.min(marg) <= 0:
                raise ValueError(f"{name} must be strictly positive for the elliptic path")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive during continuation")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        return self

    def with_delta(self, delta):
        return replace(self, delta=delta)


# ---------------------------------------------------------------------------
# Discrete operator pieces
# ---------------------------------------------------------------------------

def _time_derivative(u, tau):
    """d_t u: centered inside, one-sided 3-point second order at t in {0, T}."""
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * tau)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * tau)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * tau)
    return du


def _compact_second(u, axis, h):
    return (np.roll(u, -1, axis) - 2.0 * u + np.roll(u, 1, axis)) / h ** 2


def _cross_second(u, ax1, ax2, h):
    return (np.roll(np.roll(u, -1, ax1), -1, ax2) - np.roll(np.roll(u, -1, ax1), 1, ax2)
            - np.roll(np.roll(u, 1, ax1), -1, ax2) + np.roll(np.roll(u, 1, ax1), 1, ax2)) \
        / (4.0 * h * h)


@functools.lru_cache(maxsize=16)
def _conformal_coeffs(grid: Grid):
    """Per-node coefficients of the compact conformal Laplacian and
    Christoffel, cached per grid and read-only."""
    g = grid.metric
    s = 1.0 / grid.sqrt_g                      # sqrt(g)/g evaluated at nodes
    s_plus = 0.5 * (s + np.roll(s, -1))        # midpoint i + 1/2
    s_minus = 0.5 * (s + np.roll(s, 1))
    gamma = _dc(g, -1, grid.h) / (2.0 * g)
    for arr in (s_plus, s_minus, gamma):
        arr.flags.writeable = False
    return s_plus, s_minus, gamma


def _laplacian_compact(u, grid: Grid):
    h = grid.h
    if grid.flat:
        out = _compact_second(u, -1, h)
        if grid.dim == 2:
            out = out + _compact_second(u, -2, h)
        return out
    s_plus, s_minus, _ = _conformal_coeffs(grid)
    flux = (s_plus * (np.roll(u, -1, -1) - u) - s_minus * (u - np.roll(u, 1, -1))) / h ** 2
    return flux / grid.sqrt_g


def spacetime_operator(u, problem: EllipticProblem):
    """The quasilinear space-time operator at the interior time nodes.

    Evaluates, via the expanded centered stencils,
    ``-u_tt + 2 <grad u, grad u_t>_g - (Hess u)(grad u, grad u)
    - eps Lap_g u + eps <grad u, grad V>_g + rho u``; this is the trace of
    the (non-uniformly) elliptic coefficient endomorphism against the full
    space-time Hessian of ``u``.
    """
    res, _ = elliptic_residual(u, problem)
    return res[1:-1]


def elliptic_residual(u, problem: EllipticProblem):
    """Per-node residual of the penalized problem and its max-norm.

    Interior rows evaluate the quasilinear operator; the two time-boundary
    rows evaluate the penalized Hamilton-Jacobi relations against the
    marginals.
    """
    grid = problem.grid
    tau, h = grid.tau, grid.h
    eps, delta, rho = problem.eps, problem.delta, problem.rho
    V = problem.reference.potential_V
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_time + 1,) + grid.space_shape:
        raise ValueError(f"potential shape {u.shape}")

    du_t = _time_derivative(u, tau)
    res = np.empty_like(u)

    gu = covariant_gradient(u, grid)            # raised index
    gv = covariant_gradient(V, grid)
    utt = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / tau ** 2

    if grid.dim == 1:
        g = grid.metric
        ux = _dc(u, -1, h)
        uxx = _compact_second(u, -1, h)
        _, _, gamma = (None, None, 0.0) if grid.flat else _conformal_coeffs(grid)
        if grid.flat:
            hess_term = uxx[1:-1] * ux[1:-1] ** 2
        else:
            hess_term = (uxx[1:-1] - gamma * ux[1:-1]) * (ux[1:-1] / g) ** 2
        advect = 2.0 * (ux[1:-1] * _dc(du_t[1:-1], -1, h)) / g
    else:
        ux = _dc(u, -2, h)
        uy = _dc(u, -1, h)
        uxx = _compact_second(u, -2, h)
        uyy = _compact_second(u, -1, h)
        uxy = _cross_second(u, -2, -1, h)
        hess_term = (uxx[1:-1] * ux[1:-1] ** 2 + 2.0 * uxy[1:-1] * ux[1:-1] * uy[1:-1]
                     + uyy[1:-1] * uy[1:-1] ** 2)
        advect = 2.0 * (ux[1:-1] * _dc(du_t[1:-1], -2, h) + uy[1:-1] * _dc(du_t[1:-1], -1, h))

    res[1:-1] = (-utt + advect - hess_term - eps * _laplacian_compact(u[1:-1], grid)
                 + eps * metric_dot(gu[1:-1], gv, grid) + rho * u[1:-1])

    half_grad_sq = 0.5 * metric_norm_sq(gu, grid)
    res[0] = (-du_t[0] + half_grad_sq[0] + delta * u[0]
              - eps * (np.log(problem.m0) + V))
    res[-1] = (-du_t[-1] + half_grad_sq[-1] - delta * u[-1]
               - eps * (np.log(problem.m1) + V))
    return res, float(np.max(np.abs(res)))


def _jacobian_terms(u, problem: EllipticProblem):
    """Stencil terms of the exact Jacobian of :func:`elliptic_residual` at ``u``.

    Each term ``((k0, k1), dk, shift, coeff)`` couples the rows at time levels
    ``k0 .. k1 - 1`` (all space points) with the columns at level ``k + dk``
    and the per-axis periodic offset ``shift``; ``coeff`` broadcasts to
    ``(k1 - k0,) + space_shape``.  Terms at the same entry are summed, and
    entries that vanish at ``u`` are kept, so the pattern is the grid's.
    """
    grid = problem.grid
    tau, h = grid.tau, grid.h
    eps, delta, rho = problem.eps, problem.delta, problem.rho
    Nt = grid.n_time
    V = problem.reference.potential_V
    du_t = _time_derivative(u, tau)
    inner = (1, Nt)
    boundary = (((0, 1), 1, 1.0, delta), ((Nt, Nt + 1), -1, -1.0, -delta))

    if grid.dim == 1:
        g = grid.metric
        ux = _dc(u, -1, h)
        uxx = _compact_second(u, -1, h)
        utx = _dc(du_t, -1, h)
        if grid.flat:
            s_plus = s_minus = np.ones(grid.n_space)
            gamma = np.zeros(grid.n_space)
            inv_sqrt_g = np.ones(grid.n_space)
        else:
            s_plus, s_minus, gamma = _conformal_coeffs(grid)
            inv_sqrt_g = 1.0 / grid.sqrt_g
        Vx = _dc(V, -1, h)
        uxI, uxxI, utxI = ux[1:-1], uxx[1:-1], utx[1:-1]

        # -u_tt
        terms = [(inner, 1, (0,), -1.0 / tau ** 2), (inner, -1, (0,), -1.0 / tau ** 2),
                 (inner, 0, (0,), 2.0 / tau ** 2)]
        # 2 ux utx / g : d(utx) and d(ux)
        A = 2.0 * uxI / g
        terms += [(inner, dk, (dx,), A * (dk * dx) / (4.0 * tau * h))
                  for dk in (+1, -1) for dx in (+1, -1)]
        dux = 2.0 * utxI / g
        terms += [(inner, 0, (dx,), dux * dx / (2.0 * h)) for dx in (+1, -1)]
        # -(uxx - gamma ux)(ux/g)^2
        q = (uxI / g) ** 2
        terms += [(inner, 0, (1,), -q / h ** 2), (inner, 0, (-1,), -q / h ** 2),
                  (inner, 0, (0,), 2.0 * q / h ** 2)]
        dpart = gamma * q - (uxxI - gamma * uxI) * 2.0 * uxI / g ** 2
        terms += [(inner, 0, (dx,), dpart * dx / (2.0 * h)) for dx in (+1, -1)]
        # -eps Lap_c
        terms += [(inner, 0, (1,), -eps * s_plus * inv_sqrt_g / h ** 2),
                  (inner, 0, (-1,), -eps * s_minus * inv_sqrt_g / h ** 2),
                  (inner, 0, (0,), eps * (s_plus + s_minus) * inv_sqrt_g / h ** 2)]
        # eps ux Vx / g and rho u
        terms += [(inner, 0, (dx,), eps * Vx / g * dx / (2.0 * h)) for dx in (+1, -1)]
        if rho:
            terms.append((inner, 0, (0,), rho))
        # boundary rows
        for levels, side, sgn_dt, sgn_delta in boundary:
            k = levels[0]
            terms += [(levels, 0, (0,), 3.0 / (2.0 * tau) * sgn_dt + sgn_delta),
                      (levels, side, (0,), -2.0 / tau * sgn_dt),
                      (levels, 2 * side, (0,), 1.0 / (2.0 * tau) * sgn_dt)]
            terms += [(levels, 0, (dx,), ux[k] / g * dx / (2.0 * h)) for dx in (+1, -1)]
        return terms

    ux = _dc(u, -2, h)
    uy = _dc(u, -1, h)
    uxx = _compact_second(u, -2, h)
    uyy = _compact_second(u, -1, h)
    uxy = _cross_second(u, -2, -1, h)
    utx = _dc(du_t, -2, h)
    uty = _dc(du_t, -1, h)
    Vx = _dc(V, -2, h)
    Vy = _dc(V, -1, h)

    def along(comp, d):
        return (d, 0) if comp == 0 else (0, d)

    base = -1.0 / tau ** 2
    terms = [(inner, 1, (0, 0), base), (inner, -1, (0, 0), base),
             (inner, 0, (0, 0), -2.0 * base)]
    for comp, (gr, gt) in enumerate(((ux, utx), (uy, uty))):
        A = 2.0 * gr[1:-1]
        terms += [(inner, dk, along(comp, d), A * (dk * d) / (4.0 * tau * h))
                  for dk in (+1, -1) for d in (+1, -1)]
        terms += [(inner, 0, along(comp, d), 2.0 * gt[1:-1] * d / (2.0 * h)) for d in (+1, -1)]

    uxI, uyI = ux[1:-1], uy[1:-1]
    uxxI, uyyI, uxyI = uxx[1:-1], uyy[1:-1], uxy[1:-1]
    for comp, q in enumerate((uxI ** 2, uyI ** 2)):
        terms += [(inner, 0, along(comp, d), c)
                  for d, c in ((1, -q / h ** 2), (-1, -q / h ** 2), (0, 2.0 * q / h ** 2))]
    terms += [(inner, 0, (dx, dy), -2.0 * uxI * uyI * (dx * dy) / (4.0 * h * h))
              for dx in (+1, -1) for dy in (+1, -1)]
    dux = -2.0 * (uxxI * uxI + uxyI * uyI) + eps * Vx
    duy = -2.0 * (uyyI * uyI + uxyI * uxI) + eps * Vy
    for d in (+1, -1):
        terms += [(inner, 0, (d, 0), dux * d / (2.0 * h)), (inner, 0, (0, d), duy * d / (2.0 * h))]

    lap = -eps / h ** 2
    terms += [(inner, 0, shift, lap) for shift in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    terms.append((inner, 0, (0, 0), -4.0 * lap))
    if rho:
        terms.append((inner, 0, (0, 0), rho))

    for levels, side, sgn_dt, sgn_delta in boundary:
        k = levels[0]
        terms += [(levels, 0, (0, 0), 3.0 / (2.0 * tau) * sgn_dt + sgn_delta),
                  (levels, side, (0, 0), -2.0 / tau * sgn_dt),
                  (levels, 2 * side, (0, 0), 1.0 / (2.0 * tau) * sgn_dt)]
        for d in (+1, -1):
            terms += [(levels, 0, (d, 0), ux[k] * d / (2.0 * h)),
                      (levels, 0, (0, d), uy[k] * d / (2.0 * h))]
    return terms


@functools.lru_cache(maxsize=16)
def _stencil_pattern(grid: Grid, stencil):
    """COO ``(rows, cols)`` of the stencil terms ``((k0, k1), dk, shift)``,
    concatenated in term order; cached per grid and read-only."""
    nsp = grid.n_space ** grid.dim
    space_idx = np.arange(nsp).reshape(grid.space_shape)
    rows, cols = [], []
    for (k0, k1), dk, shift in stencil:
        col_sp = space_idx
        for ax, s in enumerate(shift):
            if s:
                col_sp = np.roll(col_sp, -s, axis=ax)
        levels = np.arange(k0, k1)[:, None] * nsp
        rows.append((levels + space_idx.ravel()).ravel())
        cols.append((levels + dk * nsp + col_sp.ravel()).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _assemble_jacobian(u, problem: EllipticProblem):
    """Exact sparse Jacobian of :func:`elliptic_residual` at ``u`` (CSR).

    The index pattern comes from :func:`_stencil_pattern`; only the values
    are computed per call.  Duplicate entries are summed and explicit zeros
    kept, so the structure depends on the grid alone.
    """
    grid = problem.grid
    terms = _jacobian_terms(u, problem)
    rows, cols = _stencil_pattern(grid, tuple(term[:3] for term in terms))
    vals = np.concatenate([np.broadcast_to(coeff, (k1 - k0,) + grid.space_shape).ravel()
                           for (k0, k1), _, _, coeff in terms])
    ntot = (grid.n_time + 1) * grid.n_space ** grid.dim
    return sparse.csr_matrix((vals, (rows, cols)), shape=(ntot, ntot))


@functools.lru_cache(maxsize=16)
def _column_order(grid: Grid):
    """The Jacobian's CSR structure and SuperLU's column order for it,
    cached per grid and read-only.

    The COLAMD order and its elimination-tree postorder read only the
    structure, which the grid fixes, so they are taken once from the
    Jacobian at ``u = 0`` of a unit problem.  ``order = argsort(perm_c)``
    gathers the columns into the order SuperLU factors them in.
    """
    ones = np.ones(grid.space_shape)
    unit = EllipticProblem(grid, ReferenceMeasure.from_potential(0.0, grid), 1.0, ones, ones)
    J = _assemble_jacobian(np.zeros((grid.n_time + 1,) + grid.space_shape), unit)
    order = np.argsort(splu(J.tocsc()).perm_c)
    for arr in (J.indptr, J.indices, order):
        arr.flags.writeable = False
    return J.indptr, J.indices, order


def _solve_linear(J, rhs, grid: Grid):
    """Solve ``J x = rhs`` by sparse LU in the grid's cached column order.

    Equal, bit for bit, to ``spsolve(J.tocsc(), rhs)``: the columns are
    gathered into SuperLU's own COLAMD order and factored without a second
    ordering.  Raises ``EllipticError`` when ``J``'s structure is not the
    cached one.
    """
    indptr, indices, order = _column_order(grid)
    if not (np.array_equal(J.indptr, indptr) and np.array_equal(J.indices, indices)):
        raise EllipticError("Jacobian structure differs from the grid's cached pattern")
    lu = splu(J.tocsc()[:, order], permc_spec="NATURAL")
    x = np.empty_like(rhs)
    x[order] = lu.solve(rhs)
    return x


def newton_step(u, problem: EllipticProblem, config: EllipticConfig = None, *, residual=None):
    """One damped Newton step; returns ``(u_next, step_norm)``.

    The Jacobian is assembled on the grid's cached stencil pattern and solved
    by sparse LU in the grid's cached column order, checked to
    ``linear_tolerance`` relative residual; the update is damped by Armijo
    backtracking on the residual max-norm.  A caller that already holds
    ``residual = elliptic_residual(u, problem)`` passes it in and gets
    ``(u_next, step_norm, residual_next)`` back, so a Newton loop evaluates
    each point once.
    """
    config = config or EllipticConfig()
    res, res_norm = elliptic_residual(u, problem) if residual is None else residual
    J = _assemble_jacobian(u, problem)
    rhs = -res.ravel()
    try:
        step = _solve_linear(J, rhs, problem.grid)
    except RuntimeError as err:      # SuperLU: the factor is exactly singular
        raise EllipticError(f"singular Jacobian at delta={problem.delta:g}",
                            delta=problem.delta, iterate=u) from err
    lin_res = np.linalg.norm(J @ step - rhs)
    # allow for rounding noise of the matrix-vector check itself
    noise = 1e-13 * abs(J).sum(axis=1).max() * max(np.linalg.norm(step), 1.0)
    if lin_res > config.linear_tolerance * np.linalg.norm(rhs) + noise:
        raise EllipticError(f"linear solve stalled (residual {lin_res:.2e})",
                            delta=problem.delta, iterate=u)
    step = step.reshape(u.shape)

    alpha = 1.0
    for _ in range(config.max_backtracks):
        trial = u + alpha * step
        trial_residual = elliptic_residual(trial, problem)
        if (trial_residual[1] <= (1.0 - 1e-4 * alpha) * res_norm
                or trial_residual[1] < config.newton_tolerance):
            result = (trial, float(np.max(np.abs(alpha * step))))
            return result if residual is None else result + (trial_residual,)
        alpha *= 0.5
    raise EllipticError(f"Armijo backtracking failed at delta={problem.delta:g} "
                        f"(residual {res_norm:.3e})", delta=problem.delta, iterate=u)


def recover_density(u, reference: ReferenceMeasure, eps, grid: Grid) -> DensityPath:
    """Density from the exponential formula; strictly positive, NOT renormalized.

    ``m = exp(-V) exp((-d_t u + |grad u|^2 / 2) / eps)``; mass conservation
    along the path is a diagnostic of discretization quality, not enforced.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = np.asarray(u, dtype=float)
    du_t = _time_derivative(u, grid.tau)
    gu = covariant_gradient(u, grid)
    exponent = (-du_t + 0.5 * metric_norm_sq(gu, grid)) / eps - reference.potential_V
    if np.max(exponent) > 700.0:
        raise EllipticError(
            "density exponent overflow; use a larger eps or a finer grid")
    return DensityPath(np.exp(exponent), grid)


def _solve_at_delta(u, problem, config):
    """Newton from ``u`` at one ``delta``; returns ``(u, steps, residual_norm)``."""
    residual = elliptic_residual(u, problem)
    for it in range(config.max_newton_iterations):
        if residual[1] < config.newton_tolerance:
            return u, it, residual[1]
        u, _, residual = newton_step(u, problem, config, residual=residual)
    if residual[1] < config.newton_tolerance:
        return u, config.max_newton_iterations, residual[1]
    raise EllipticError(f"Newton did not converge at delta={problem.delta:g} "
                        f"(residual {residual[1]:.3e})", delta=problem.delta, iterate=u)


def solve_elliptic(problem: EllipticProblem, config: EllipticConfig = None):
    """Continuation in the boundary penalization; returns (Potential, DensityPath, SolveReport).

    Starts at ``delta_start`` (falling back to 0.25 if the very first level
    refuses to converge), halves ``delta`` with Newton warm starts down to
    ``delta_final``, bisecting geometrically on failures.  The final
    potential is shifted so its terminal trace pairs to zero against the
    terminal marginal.
    """
    config = (config or EllipticConfig()).validate()
    problem.validate()
    grid = problem.grid
    t0 = time.perf_counter()

    u = np.zeros((grid.n_time + 1,) + grid.space_shape)
    total_newton = 0

    first = problem.with_delta(config.delta_start)
    try:
        u, its, res_norm = _solve_at_delta(u, first, config)
    except EllipticError:
        first = problem.with_delta(0.25)
        u = np.zeros_like(u)
        u, its, res_norm = _solve_at_delta(u, first, config)
    total_newton += its
    delta = first.delta

    while delta > config.delta_final:
        target = max(delta / 2.0, config.delta_final)
        attempt, u_last = target, u
        for _ in range(config.max_bisections + 1):
            try:
                u, its, res_norm = _solve_at_delta(u_last, problem.with_delta(attempt),
                                                   config)
                total_newton += its
                break
            except EllipticError as err:
                attempt = np.sqrt(attempt * delta)
                if abs(attempt - delta) < 1e-12 * delta:
                    raise EllipticError(
                        f"continuation stalled near delta={delta:g}",
                        delta=delta, iterate=u_last) from err
        else:
            raise EllipticError(f"continuation bisection budget exhausted at delta={delta:g}",
                                delta=delta, iterate=u_last)
        delta = attempt

    m_path = recover_density(u, problem.reference, problem.eps, grid)
    m1 = np.asarray(problem.m1, dtype=float)
    u = Potential(u, grid).normalize(m1)
    objective = functional_value(m_path, dual_momentum(m_path, u), problem.reference,
                                 problem.eps)
    cross = (integrate(u.values[0] * np.asarray(problem.m0, float), grid)
             - integrate(u.values[-1] * m1, grid))

    energy = energy_profile(m_path, u, problem.reference, problem.eps)
    drift = float(np.max(np.abs(energy - np.mean(energy)))) if energy.size else 0.0

    report = SolveReport(
        iterations=total_newton,
        final_residual=res_norm,
        consensus_gap=0.0,
        duality_gap=abs(cross - objective),
        objective=objective,
        energy_drift=drift,
        wall_time=time.perf_counter() - t0,
        converged=True,
    )
    return u, m_path, report
