"""Primal solver: proximal splitting of the kinetic + entropy action.

The discrete functional is minimized over staggered pairs ``(m, w)`` subject
to the continuity constraint by an alternating-direction augmented
Lagrangian.  Centered copies ``y = (a, b, c)`` of the staggered variables
carry the pointwise cell energies (``a``: midpoint density for the kinetic
kernel, ``b``: momentum, ``c``: interior-node density for the entropy), the
staggered copy is kept exactly feasible by a weighted projection onto the
continuity set, and a multiplier enforces consensus between the two:

    1. pointwise prox on the centered copies     (two closed forms per cell)
    2. weighted continuity projection            (one spectral space-time solve)
       of the relaxed point  h = alpha y + (1 - alpha) L z
    3. relaxed multiplier ascent                 lambda += r (L z' - h).

Steps 2 and 3 are over-relaxed (Eckstein & Bertsekas 1992) with
``alpha = RELAXATION = 1.5``; ``L z`` is the centered image of the
staggered copy before the projection and ``L z'`` after it.  The
projection's space-time solve is direct on every grid, by matrix products
with dense bases cached per grid: the cosine basis of the time midpoints,
and the eigenbasis of the Laplace-Beltrami operator along each spatial
axis.

Step 1 is exact: ``(a, b)`` carry only the kinetic energy, so ``a`` is the
real root of the Benamou-Brenier cubic, and ``c`` carries only the entropy,
so it is a Wright omega value.  The safeguarded Newton root ``_prox_root``
of the mixed cell serves ``pointwise_prox`` and is the tests' reference.

Steps 1-3 form a map ``T`` of the state ``x = (interior m, w, lambda)``,
and the loop runs ``T`` under safeguarded type-II Anderson acceleration
(``anderson_fixed_point``, memory ``ANDERSON_MEMORY = 5``; Zhang,
O'Donoghue & Boyd 2020, Fu, Zhang & Boyd 2020): each step extrapolates
from the last few residuals ``x - T(x)`` and keeps the extrapolated point
only if its residual is no larger than the current one; otherwise the
memory is cleared and the loop goes on from the plain image ``T(x)``.
``iterations``, ``residual_history`` and ``max_outer_iterations`` all
count evaluations of ``T``, that is weighted projections.

The stop is certified by weak duality.  With ``phi`` the solution of a
weighted projection, ``r phi`` is a multiplier of the continuity
constraint, and the closed-form dual ``G = transport.dual_value`` satisfies
``G(r phi) <= min F_eps <= F_eps(m, w)`` at that projection's pair, which
is feasible whenever its density is nonnegative.  Once every
``stagnation_window`` projections, the solver evaluates both at the latest
projection and stops when
``-ROUNDING (1 + |F_eps|) <= F_eps - G <= gap_tolerance (1 + |F_eps|)``;
the gap is reported as ``certified_gap`` (Boyd et al. 2011, section 3.3,
for the relative test).  At the optimum ``F_eps = G`` up to the rounding of
the two sums, so ``F_eps - G`` may come out slightly negative (-2e-16 on
uniform marginals, where ``F_eps = G = 0``); such a gap is zero to
rounding, ends the solve, and is reported as computed, sign included.  A
pair with a negative density is not checked.

The projection multiplier converges to the adjoint state of the coupled
optimality system; after a sign flip and a linear-in-time gauge shift it is
returned as the potential ``u`` whose traces certify the objective through
the duality identity  int u(0) m0 - int u(T) m1 = F_eps(m, w).  That
identity's defect, ``duality_gap``, carries the reconstruction error of
``u``: it is not a bound, and it closes less tightly than ``certified_gap``.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import wrightomega

from .grid import (
    Grid,
    build_grid,
    centred_kernel,
    covariant_gradient,
    divergence_g,
    integrate,
    laplace_beltrami,
    metric_norm_sq,
)
from .transport import (
    ROUNDING,
    DensityPath,
    MomentumField,
    Potential,
    ReferenceMeasure,
    continuity_defect,
    continuity_residual,
    dual_value,
    energy_drift,
    energy_profile,
    functional_value,
    potential_from_multiplier,
    spacetime_norm,
    velocity_from_momentum,
)

# Over-relaxation factor of the ADMM splitting; 1 is plain ADMM.
RELAXATION = 1.5
# Number of past steps the Anderson acceleration of the ADMM map mixes.
ANDERSON_MEMORY = 5


class ProxError(Exception):
    """Solver failure carrying the best iterate and the residual history."""

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = history


@dataclass
class ProxConfig:
    """ADMM settings.  The solve stops at the first gap check, one every
    ``stagnation_window`` projections (from ``min_iterations`` on, which
    defaults to the start), where the certified gap ``F - G`` lies in
    ``[-ROUNDING (1 + |F|), gap_tolerance (1 + |F|)]``;
    ``max_outer_iterations`` bounds the number of projections."""

    penalty: float = 1.0
    max_outer_iterations: int = 30000
    gap_tolerance: float = 1e-10
    stagnation_window: int = 10
    min_iterations: int = 0

    def validate(self):
        for name in ("penalty", "gap_tolerance"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or value <= 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        for name, least in (("max_outer_iterations", 1), ("stagnation_window", 1),
                            ("min_iterations", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        return self


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    consensus_gap: float
    duality_gap: float
    objective: float
    energy_drift: float
    wall_time: float
    velocity_discrepancy: float = 0.0
    certified_gap: float = None
    residual_history: np.ndarray = field(default=None, repr=False)
    objective_history: np.ndarray = field(default=None, repr=False)
    # the dual route's final multiplier phi; transport.dual_pair gives its pair
    multiplier: np.ndarray = field(default=None, repr=False)
    converged: bool = True

    def as_dict(self, include_volatile=False):
        out = {
            "iterations": int(self.iterations),
            "final_residual": float(self.final_residual),
            "consensus_gap": float(self.consensus_gap),
            "duality_gap": float(self.duality_gap),
            "objective": float(self.objective),
            "energy_drift": float(self.energy_drift),
            "velocity_discrepancy": float(self.velocity_discrepancy),
            "converged": bool(self.converged),
        }
        if self.certified_gap is not None:
            out["certified_gap"] = float(self.certified_gap)
        if include_volatile:
            out["wall_time"] = float(self.wall_time)
        return out


# ---------------------------------------------------------------------------
# Pointwise prox
# ---------------------------------------------------------------------------

def _prox_root(a, bsq, sigma, eps, V, tol=1e-12, max_iter=500):
    """Vectorized root of the prox optimality condition.

    Solves, per cell, f(m) = (m - a)/sigma + eps (log m + V + 1)
    - bsq / (2 (m + sigma)^2) = 0 over m > 0, by safeguarded Newton with
    bisection fallback on a bracket that provably contains the root (f is
    strictly increasing).  For eps == 0 the boundary minimum m = 0 is
    detected from the sign of f(0+); for eps > 0 a root below the smallest
    normal float is returned as 0, as ``_entropy_prox`` underflows.  Raises
    ``ProxError`` when ``max_iter`` steps do not reach ``tol``.
    """
    a = np.asarray(a, dtype=float)
    bsq = np.broadcast_to(np.asarray(bsq, dtype=float), a.shape).copy()
    V = np.broadcast_to(np.asarray(V, dtype=float), a.shape)

    def f(m):
        out = (m - a) / sigma - bsq / (2.0 * (m + sigma) ** 2)
        if eps > 0:
            out = out + eps * (np.log(m) + V + 1.0)
        return out

    def fp(m):
        out = 1.0 / sigma + bsq / (m + sigma) ** 3
        if eps > 0:
            out = out + eps / m
        return out

    if eps == 0:
        at_zero = (-a) / sigma - bsq / (2.0 * sigma ** 2) >= 0
    else:
        at_zero = f(np.finfo(float).tiny) >= 0

    lo = np.maximum(a, 0.0) + 1e-300
    if eps > 0:
        for _ in range(400):
            bad = (f(lo) >= 0) & ~at_zero
            if not bad.any():
                break
            lo = np.where(bad, lo / 8.0, lo)
    hi = np.maximum(a, 0.0) + sigma + 1.0
    for _ in range(200):
        bad = f(hi) <= 0
        if not bad.any():
            break
        hi = np.where(bad, hi * 2.0, hi)

    m = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fm = f(m)
        if np.max(np.abs(np.where(at_zero, 0.0, fm))) < tol:
            break
        below = fm < 0
        lo = np.where(below, m, lo)
        hi = np.where(below, hi, m)
        step = fm / fp(m)
        newton = m - step
        inside = (newton > lo) & (newton < hi)
        m = np.where(inside, newton, 0.5 * (lo + hi))
    else:
        raise ProxError(f"pointwise prox root did not reach {tol:g} in {max_iter} iterations")
    m = np.where(at_zero, 0.0, m)
    return m


def _kinetic_prox(a, bsq, sigma):
    """Closed-form ``_prox_root`` for ``eps == 0`` (the Benamou-Brenier cubic).

    With ``x = m + sigma`` the first-order condition is the cubic
    ``x^3 - s x^2 - q = 0``, ``s = a + sigma``, ``q = sigma bsq / 2``, whose
    positive root is unique (Descartes).  Cardano gives it unless the
    discriminant is negative, which needs ``s < 0``; then the trigonometric
    form applies, written through ``arcsin`` because the ``arccos``
    argument sits next to -1 when the root is small.  One Newton step on
    ``(m - a)(m + sigma)^2 - q`` in ``m`` itself restores the digits that
    ``x - sigma`` loses when ``m << sigma``.  Cells with
    ``a + bsq / (2 sigma) <= 0`` sit at the boundary minimum ``m = 0``.
    """
    a = np.asarray(a, dtype=float)
    s, q = np.broadcast_arrays(a + sigma, 0.5 * sigma * np.asarray(bsq, dtype=float))
    at_zero = (-a) / sigma - bsq / (2.0 * sigma ** 2) >= 0
    # depressed cubic y^3 + P y + Q = 0 for x = y + s/3, disc = (Q/2)^2 + (P/3)^3
    half_q = s ** 3 / 27.0 + 0.5 * q                         # -Q/2
    disc = q * (s ** 3 / 27.0 + 0.25 * q)
    u = np.cbrt(half_q + np.copysign(np.sqrt(np.maximum(disc, 0.0)), half_q))
    u = np.where(u == 0.0, 1.0, u)
    x = np.asarray(u + s * s / (9.0 * u) + s / 3.0)         # Cardano
    trig = disc < 0
    if np.any(trig):
        # there s < 0, so r > 0
        r = np.abs(s[trig]) / 3.0
        alpha = (2.0 / 3.0) * np.arcsin(np.sqrt(np.minimum(q[trig] / (4.0 * r ** 3), 1.0)))
        x[trig] = r * (np.sqrt(3.0) * np.sin(alpha) - 2.0 * np.sin(0.5 * alpha) ** 2)
    m = np.maximum(x - sigma, 0.0)
    ms = m + sigma
    m = m - ((m - a) * ms * ms - q) / (ms * (3.0 * m + sigma - 2.0 * a))
    return np.where(at_zero, 0.0, m)


def _entropy_prox(a, sigma, eps, V):
    """Closed-form ``_prox_root`` for ``bsq == 0`` and ``eps > 0``.

    ``(m - a)/sigma + eps (log m + V + 1) = 0`` becomes ``w + log w = z``
    for ``m = sigma eps w``, so ``w`` is the Wright omega function of
    ``z = a/(sigma eps) - V - 1 - log(sigma eps)``; it cannot overflow and
    underflows to ``m = 0`` only for ``z`` below about -745.
    """
    se = sigma * eps
    return se * wrightomega(np.asarray(a, dtype=float) / se - V - 1.0 - np.log(se))


def pointwise_prox(a, b, sigma, eps_cell, V_cell, tol=1e-12):
    """Per-cell prox: argmin over (m >= 0, w) of
    ``Psi(w, m) + eps_cell m (log m + V_cell) + (|w - b|^2 + (m - a)^2) / (2 sigma)``.

    The momentum is eliminated analytically as ``w = m b / (m + sigma)``;
    the density solves the scalar first-order condition.  For
    ``eps_cell > 0`` the root is strictly positive; for ``eps_cell = 0``
    the boundary value ``m = 0`` (with ``w = 0``) is admitted.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if eps_cell < 0:
        raise ValueError("eps_cell must be nonnegative")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    bsq = float(np.dot(b, b))
    m = float(_prox_root(np.asarray(float(a)), bsq, sigma, eps_cell, float(V_cell), tol=tol))
    w = m * b / (m + sigma)
    return m, w


# ---------------------------------------------------------------------------
# The space-time kernel
# ---------------------------------------------------------------------------

def _time_symbol(grid: Grid, weighted: bool):
    """Eigenvalues of the time block of the projection operator in the
    cosine basis of the interval midpoints, shaped to broadcast against
    space-time fields.

    Plain projection: the 3-point Neumann Laplacian on the Nt interval
    midpoints.  Weighted projection (consensus coupling through midpoint
    averaging + node copies): the same symbol divided by the sine-mode
    eigenvalue of the tridiagonal coupling matrix [1/4, 3/2, 1/4].
    """
    j = np.arange(grid.n_time)
    lam = (2.0 - 2.0 * np.cos(np.pi * j / grid.n_time)) / grid.tau ** 2
    if weighted:
        lam = lam / (1.5 + 0.5 * np.cos(np.pi * j / grid.n_time))
    return lam.reshape((-1,) + (1,) * grid.dim)


@functools.lru_cache(maxsize=16)
def _space_eigenbasis(grid: Grid):
    """Eigenpairs ``(mu, Q)`` of the symmetrized spatial operator
    ``S = omega^{1/2} (-div_g grad) omega^{-1/2}``, ``omega = sqrt(g)``, from
    one dense ``eigh`` along one axis; cached per grid and read-only.  The
    flat 2-D operator is the Kronecker sum of two copies of its axis's:
    there ``Q`` is the axis's eigenbasis, applied along each axis, and
    ``mu[i, j]`` the sum of the axis eigenvalues ``i`` and ``j``.  Raises
    ``ProxError`` when the eigen-residual exceeds ``1e-12 |S|``.
    """
    if grid.dim == 2:
        mu, Q = _space_eigenbasis(build_grid(1, grid.n_space, grid.n_time, grid.horizon,
                                             length=grid.length))
        mu = mu[:, None] + mu[None, :]
        mu.flags.writeable = False
        return mu, Q
    wroot = np.sqrt(grid.sqrt_g)
    # row i of -Lap_g(diag(omega^{-1/2})) is column i of -Lap_g omega^{-1/2}
    S = (-laplace_beltrami(np.diag(1.0 / wroot), grid) * wroot).T
    mu, Q = np.linalg.eigh(S)
    if np.linalg.norm(S @ Q - Q * mu) > 1e-12 * np.linalg.norm(S):
        raise ProxError("eigendecomposition of the spatial operator is inaccurate")
    mu.flags.writeable = False
    Q.flags.writeable = False
    return mu, Q


def _pseudo_inverse(sym, grid: Grid):
    """Reciprocal of a nonnegative symbol off its kernel, read-only: the
    entries below ``1e-12`` of the largest are masked to 0, and they must be
    exactly as many as the modes of ``centred_kernel``, else ``ProxError``."""
    inv = np.zeros_like(sym)
    mask = sym > 1e-12 * sym.max()
    inv[mask] = 1.0 / sym[mask]
    masked, kernel = mask.size - np.count_nonzero(mask), len(centred_kernel(grid)[0])
    if masked != kernel:
        raise ProxError(f"{masked} masked modes, expected the {kernel} kernel modes")
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=16)
def _spacetime_kernel(grid: Grid, weighted: bool):
    """The factors ``(C, forward, backward, inv)`` of ``spacetime_poisson``,
    cached per grid and read-only: the orthonormal cosine basis ``C`` of the
    Nt interval midpoints (one mode per row), the spatial eigenbasis with the
    ``omega^{1/2}`` weights folded in, ``forward = diag(omega^{1/2}) Q`` and
    ``backward = Q^T diag(omega^{-1/2})``, and the pseudo-inverse symbol of
    (time block + spatial operator) in the product basis.
    """
    nt = grid.n_time
    C = np.sqrt(2.0 / nt) * np.cos(np.pi * np.arange(nt)[:, None] * (np.arange(nt) + 0.5) / nt)
    C[0] /= np.sqrt(2.0)
    mu, Q = _space_eigenbasis(grid)
    wroot = np.sqrt(grid.sqrt_g) if grid.dim == 1 else np.ones(grid.n_space)
    forward = wroot[:, None] * Q
    backward = Q.T / wroot
    for matrix in (C, forward, backward):
        matrix.flags.writeable = False
    return C, forward, backward, _pseudo_inverse(_time_symbol(grid, weighted) + mu, grid)


def _along_space(field, matrix, dim):
    """Apply ``matrix`` along every spatial axis of a space-time field."""
    if dim == 1:
        return field @ matrix
    return matrix.T @ field @ matrix


def _apply_operator(phi, grid: Grid, weighted):
    """Forward application of the space-time operator (any metric) by its
    stencils: the time block is ``D^T K^{-1} D`` for the midpoint difference
    ``D`` and, when ``weighted``, the coupling ``K`` (the identity otherwise)."""
    psi = (phi[:-1] - phi[1:]) / grid.tau
    if weighted:
        psi = _interior_coupling_solve(psi, grid.n_time)
    out = -divergence_g(covariant_gradient(phi, grid), grid)
    out[:-1] += psi / grid.tau
    out[1:] -= psi / grid.tau
    return out


def align_null_moments(m0, m1, grid: Grid, max_rounds=4):
    """Make a marginal pair compatible with the discrete continuity operator.

    The centered divergence annihilates the alternating spatial modes, so a
    staggered pair can connect two marginals only when their volume-weighted
    moments against those modes agree.  This symmetrically transfers half of
    each moment difference between the marginals and renormalizes the
    masses; for smooth profiles the perturbation is at the level of their
    (tiny) top-frequency content.
    """
    m0 = np.asarray(m0, dtype=float).copy()
    m1 = np.asarray(m1, dtype=float).copy()
    modes = centred_kernel(grid)[0][1:]
    if not modes:
        return m0, m1
    w = grid.cell_volume
    for _ in range(max_rounds):
        worst = 0.0
        for s in modes:
            denom = float(np.sum(s * s * w))
            a0 = float(np.sum(m0 * s * w)) / denom
            a1 = float(np.sum(m1 * s * w)) / denom
            mid = 0.5 * (a0 + a1)
            m0 += (mid - a0) * s
            m1 += (mid - a1) * s
            worst = max(worst, abs(a1 - a0))
        m0 = np.maximum(m0, 0.0)
        m1 = np.maximum(m1, 0.0)
        m0 /= integrate(m0, grid)
        m1 /= integrate(m1, grid)
        if worst < 1e-14:
            break
    return m0, m1


def spacetime_poisson(rhs, grid: Grid, weighted=False):
    """Solve the space-time problem (-d_tt - Lap_g) phi = rhs.

    Homogeneous Neumann in time (the rhs lives on the Nt interval
    midpoints), periodic in space, mean-zero gauge: components of the rhs
    in the kernel of the operator (space-time constants and, on even
    grids, the centered-stencil null modes) are removed and the solution
    carries none of them.

    The operator is separable and both blocks are diagonalized directly on
    every grid, by dense bases cached per ``(grid, weighted)``: the cosine
    basis of the midpoints in time, and in space the eigenbasis of the
    sqrt(g)-symmetrized Laplace-Beltrami operator, applied along each axis
    of the flat 2-D torus.  The solution is sqrt(g)-orthogonal to the
    kernel, whose modes the pseudo-inverse masks.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n_time,) + grid.space_shape:
        raise ValueError(f"rhs shape {rhs.shape}, expected {(grid.n_time,) + grid.space_shape}")

    C, forward, backward, inv = _spacetime_kernel(grid, weighted)
    hat = _along_space((C @ rhs.reshape(grid.n_time, -1)).reshape(rhs.shape), forward, grid.dim)
    hat *= inv
    phi = (C.T @ hat.reshape(grid.n_time, -1)).reshape(rhs.shape)
    return _along_space(phi, backward, grid.dim)


# ---------------------------------------------------------------------------
# Continuity projections
# ---------------------------------------------------------------------------

def _apply_correction(m_full, w_values, phi, grid: Grid):
    """Subtract the adjoint correction (B* phi) from a staggered pair."""
    tau = grid.tau
    m_new = m_full.copy()
    m_new[1:-1] -= (phi[:-1] - phi[1:]) / tau
    w_new = w_values - covariant_gradient(phi, grid)
    return m_new, w_new


def project_continuity(m: DensityPath, w: MomentumField, m0, m1, grid: Grid):
    """Volume-weighted projection onto the discrete continuity set.

    The affine set is { d_t m - div_g w = 0, m(0) = m0, m(T) = m1 }; the
    projection is computed from a single space-time solve for the
    constraint multiplier.  Idempotent, and the continuity residual after
    projection is at kernel level (zero for marginals whose centered-
    stencil null components agree).

    Returns the projected pair and the multiplier interpolated to time
    nodes as a potential increment.
    """
    m_full = m.values.copy()
    m_full[0] = m0
    m_full[-1] = m1
    r = continuity_defect(DensityPath(m_full, grid), w)
    phi = spacetime_poisson(r, grid, weighted=False)
    m_new, w_new = _apply_correction(m_full, w.values, phi, grid)
    return (DensityPath(m_new, grid), MomentumField(w_new, grid),
            Potential(_midpoints_to_nodes(phi, grid), grid))


def _midpoints_to_nodes(field_mid, grid: Grid):
    """Interpolate an interval-midpoint time series to the Nt+1 nodes."""
    out = np.empty((grid.n_time + 1,) + field_mid.shape[1:])
    out[1:-1] = 0.5 * (field_mid[:-1] + field_mid[1:])
    out[0] = 1.5 * field_mid[0] - 0.5 * field_mid[1]
    out[-1] = 1.5 * field_mid[-1] - 0.5 * field_mid[-2]
    return out


@functools.lru_cache(maxsize=16)
def _coupling_inverse(n):
    """Inverse of the n x n coupling [1/4, 3/2, 1/4], read-only.  The
    coupling's eigenvalues lie in (1, 2), so the inverse is well conditioned."""
    inverse = np.linalg.inv(1.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1)))
    inverse.flags.writeable = False
    return inverse


def _interior_coupling_solve(rhs, n_time):
    """Solve the tridiagonal consensus coupling [1/4, 3/2, 1/4] in time."""
    n = n_time - 1
    return (_coupling_inverse(n) @ rhs.reshape(n, -1)).reshape(rhs.shape)


def _weighted_projection(qa, qb, qc, m0, m1, grid: Grid):
    """Constrained least-squares step of the splitting.

    Minimizes |Av m - qa|^2 + |w - qb|^2_g + |m_int - qc|^2 over the
    continuity set (endpoints pinned to the marginals).  Reduces to a
    candidate assembly, one weighted space-time solve for the multiplier,
    and the adjoint correction.  Returns (m_full, w, phi).
    """
    tau = grid.tau
    rhs_m = 0.5 * (qa[:-1] + qa[1:]) + qc
    rhs_m[0] -= 0.25 * m0
    rhs_m[-1] -= 0.25 * m1
    m_cand = np.empty((grid.n_time + 1,) + grid.space_shape)
    m_cand[0] = m0
    m_cand[-1] = m1
    m_cand[1:-1] = _interior_coupling_solve(rhs_m, grid.n_time)

    r = continuity_defect(DensityPath(m_cand, grid), MomentumField(qb, grid))
    phi = spacetime_poisson(r, grid, weighted=True)

    m_new = m_cand.copy()
    psi = (phi[:-1] - phi[1:]) / tau
    m_new[1:-1] -= _interior_coupling_solve(psi, grid.n_time)
    w_new = qb - covariant_gradient(phi, grid)
    return m_new, w_new, phi


# ---------------------------------------------------------------------------
# Anderson acceleration and the ADMM driver
# ---------------------------------------------------------------------------

def anderson_fixed_point(apply, x, max_evaluations):
    """Safeguarded type-II Anderson acceleration of a fixed-point map.

    ``apply(x)`` returns ``(T(x), stop)`` for a flat array ``x``; the loop
    ends at the first ``stop`` or after ``max_evaluations`` calls and
    returns ``(evaluations, stop)``.  Each step extrapolates
    ``x~ = T(x) - dF gamma`` from the last ``ANDERSON_MEMORY`` differences
    ``dG`` of the residuals ``g = x - T(x)`` and ``dF`` of the images, with
    ``gamma`` minimizing ``|g - dG gamma|`` through the normal equations: the
    Gram matrix ``dG dG^T`` gains one row per step and a ridge of ``1e-12``
    times its trace.  ``x~`` is kept only when ``|T(x~) - x~| <= |T(x) - x|``;
    otherwise the memory is cleared and the iteration continues from the
    plain image ``T(x)`` (Fu, Zhang & Boyd 2020).  With an empty memory, or
    differences that are all zero, the step is the plain image.
    """
    memory = ANDERSON_MEMORY
    d_g = np.empty((memory, x.size))
    d_f = np.empty((memory, x.size))
    gram = np.zeros((memory, memory))
    count = slot = evaluations = 0

    def evaluate(y):
        nonlocal evaluations
        image, stop = apply(y)
        evaluations += 1
        residual = y - image
        return image, residual, np.linalg.norm(residual), stop

    fx, g, g_norm, stop = evaluate(x)
    while not stop and evaluations < max_evaluations:
        trial = fx
        trace = np.trace(gram[:count, :count])
        extrapolated = trace > 0
        if extrapolated:
            gamma = np.linalg.solve(gram[:count, :count] + 1e-12 * trace * np.eye(count),
                                    d_g[:count] @ g)
            trial = fx - gamma @ d_f[:count]
        f_trial, g_trial, g_trial_norm, stop = evaluate(trial)
        if extrapolated and g_trial_norm > g_norm and not stop and evaluations < max_evaluations:
            count = slot = 0
            f_trial, g_trial, g_trial_norm, stop = evaluate(fx)
        d_g[slot] = g_trial - g
        d_f[slot] = f_trial - fx
        count = min(count + 1, memory)
        gram[slot, :count] = gram[:count, slot] = d_g[:count] @ d_g[slot]
        slot = (slot + 1) % memory
        fx, g, g_norm = f_trial, g_trial, g_trial_norm
    return evaluations, stop


def solve_prox(m0, m1, reference: ReferenceMeasure, eps, grid: Grid,
               config: ProxConfig = None):
    """Minimize the discrete functional over continuity-feasible pairs.

    Returns ``(DensityPath, MomentumField, Potential, SolveReport)``.  The
    density path is the projected (feasible to machine precision) copy;
    the potential is the constraint multiplier, sign-fixed and shifted so
    that its terminal trace pairs to zero against ``m1``.

    ``report.iterations`` counts weighted projections, that is evaluations
    of the ADMM map; ``report.residual_history`` holds the consensus of each
    and ``report.objective_history`` ``F_eps`` at each gap check.

    Raises ``ValueError`` for marginals with zero cells (pre-smooth them)
    and ``ProxError`` when the projection budget is exhausted, carrying the
    last projected pair and the residual history.
    """
    config = (config or ProxConfig()).validate()
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    for name, marg in (("m0", m0), ("m1", m1)):
        if marg.shape != grid.space_shape:
            raise ValueError(f"{name} shape {marg.shape} != {grid.space_shape}")
        if np.any(marg <= 0):
            raise ValueError(f"{name} has a zero cell; pre-smooth it")
        if abs(integrate(marg, grid) - 1.0) > 1e-8:
            raise ValueError(f"{name} mass deviates from 1 by more than 1e-8")
    if eps <= 0:
        raise ValueError("eps must be positive")

    t0 = time.perf_counter()
    r = config.penalty
    Nt = grid.n_time
    tau = grid.tau

    # init: linear interpolation of the marginals, zero momentum, projected
    frac = (np.arange(Nt + 1) / Nt).reshape((-1,) + (1,) * grid.dim)
    m_full = (1.0 - frac) * m0 + frac * m1
    w = np.zeros((Nt,) + grid.space_shape + (grid.dim,))
    r0 = continuity_defect(DensityPath(m_full, grid), MomentumField(w, grid))
    phi0 = spacetime_poisson(r0, grid, weighted=False)
    m_full, w = _apply_correction(m_full, w, phi0, grid)

    # the map's state x = (interior m, w, lam_a, lam_b, lam_c), packed flat
    interior, mid = m_full[1:-1].shape, (Nt,) + grid.space_shape
    shapes = (interior, w.shape, mid, w.shape, interior)
    bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])

    def unpack(state):
        return [state[lo:hi].reshape(shape)
                for lo, hi, shape in zip(bounds, bounds[1:], shapes)]

    x = np.concatenate((m_full[1:-1].ravel(), w.ravel(), np.zeros(bounds[-1] - bounds[2])))

    sqrt_g = grid.sqrt_g
    V = reference.potential_V
    sigma = 1.0 / r
    res_history = []
    obj_history = []
    weight_scalar = grid.cell_volume * tau
    path = m_full.copy()            # endpoints stay the marginals
    last = {"gap": np.inf}

    def consensus_norm(da, db, dc):
        tot = np.sum(da * da * weight_scalar)
        tot += np.sum(metric_norm_sq(db, grid) * weight_scalar)
        tot += np.sum(dc * dc * weight_scalar)
        return float(np.sqrt(tot))

    def admm_map(state):
        m_int, w, lam_a, lam_b, lam_c = unpack(state)
        path[1:-1] = m_int
        za = 0.5 * (path[:-1] + path[1:])      # a-part of the centered image L z

        # 1. pointwise prox on the centered copies
        pa = za + lam_a / r
        pb = w + lam_b / r
        pc = m_int + lam_c / r

        pb_frame = pb * sqrt_g[..., None] if grid.dim == 1 else pb
        bsq = np.sum(pb_frame * pb_frame, axis=-1)
        a = _kinetic_prox(pa, bsq, sigma)
        scale = a / (a + sigma)
        b = pb * scale[..., None]
        c = _entropy_prox(pc, sigma, eps, V)

        # 2. weighted continuity projection of the relaxed point
        ha = RELAXATION * a + (1.0 - RELAXATION) * za
        hb = RELAXATION * b + (1.0 - RELAXATION) * w
        hc = RELAXATION * c + (1.0 - RELAXATION) * m_int
        m_new, w_new, phi = _weighted_projection(ha - lam_a / r, hb - lam_b / r,
                                                 hc - lam_c / r, m0, m1, grid)

        # 3. relaxed multiplier ascent; consensus is measured against y = (a, b, c)
        out = np.empty_like(state)
        out_m, out_w, out_a, out_b, out_c = unpack(out)
        out_m[...] = m_new[1:-1]
        out_w[...] = w_new
        za_new = 0.5 * (m_new[:-1] + m_new[1:])
        out_a[...] = lam_a + r * (za_new - ha)
        out_b[...] = lam_b + r * (w_new - hb)
        out_c[...] = lam_c + r * (out_m - hc)
        res_history.append(consensus_norm(za_new - a, w_new - b, out_m - c))
        last.update(m=m_new, w=w_new, phi=phi)

        # 4. certified stop: F at the projected pair against G at its multiplier;
        # weak duality needs the pair feasible, so a negative density is not checked
        since = len(res_history) - config.min_iterations
        if since < 0 or since % config.stagnation_window or m_new.min() < 0:
            return out, False
        obj = functional_value(DensityPath(m_new, grid), MomentumField(w_new, grid),
                               reference, eps)
        gap = obj - dual_value(r * phi, m0, m1, reference, eps, grid)
        obj_history.append(obj)
        last.update(obj=obj, gap=gap)
        scale = 1.0 + abs(obj)
        return out, bool(np.isfinite(obj)
                         and -ROUNDING * scale <= gap <= config.gap_tolerance * scale)

    iterations, converged = anderson_fixed_point(admm_map, x, config.max_outer_iterations)
    res_history = np.asarray(res_history)
    obj_history = np.asarray(obj_history)
    m_full, w, phi = last["m"], last["w"], last["phi"]
    consensus, gap = res_history[-1], last["gap"]
    if not converged:
        raise ProxError(
            f"no convergence in {config.max_outer_iterations} projections "
            f"(consensus gap {consensus:.3e}, certified gap {gap:.3e})",
            best=(m_full, w), history=res_history)

    obj = last["obj"]
    m = DensityPath(m_full, grid)
    mom = MomentumField(w, grid)
    u = potential_from_multiplier(r * phi, m_full, w, reference, eps, grid)

    duality_gap = abs(u.cross_pairing(m0, m1) - obj)
    drift = energy_drift(energy_profile(m, u, reference, eps))

    mbar = 0.5 * (m_full[:-1] + m_full[1:])
    v = velocity_from_momentum(w, mbar)
    grad_u_mid = covariant_gradient(-r * phi, grid)
    vdisc = spacetime_norm(np.sqrt(np.maximum(metric_norm_sq(v - grad_u_mid, grid), 0.0)
                                   * mbar), grid)

    _, final_res = continuity_residual(m, mom)
    report = SolveReport(
        iterations=iterations,
        final_residual=final_res,
        consensus_gap=consensus,
        duality_gap=duality_gap,
        objective=obj,
        energy_drift=drift,
        wall_time=time.perf_counter() - t0,
        velocity_discrepancy=vdisc,
        certified_gap=gap,
        residual_history=res_history,
        objective_history=obj_history,
        converged=converged,
    )
    return m, mom, u, report
