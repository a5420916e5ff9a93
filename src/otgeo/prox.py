"""Primal solver: proximal splitting of the kinetic + entropy action.

The discrete functional is minimized over staggered pairs ``(m, w)``
(momenta on the cell faces, ``grid``) subject to the continuity constraint
by an alternating-direction augmented Lagrangian.  Pointwise copies
``y = (a, b, c)`` of the staggered variables carry the energies (``a``: the
face density for the kinetic kernel, ``b``: momentum, ``c``: interior-node
density for the entropy), the staggered copy is kept exactly feasible by a
weighted projection onto the continuity set, and a multiplier enforces
consensus between the two:

    1. pointwise prox on the copies              (two closed forms per face or cell)
    2. weighted continuity projection            (spectral space-time solves)
       of the relaxed point  h = alpha y + (1 - alpha) L z
    3. relaxed multiplier ascent                 lambda += r (L z' - h).

Steps 2 and 3 are over-relaxed (Eckstein & Bertsekas 1992) with
``alpha = RELAXATION = 1.5``; ``L z = (A m, w, interior m)`` is the image of
the staggered copy before the projection and ``L z'`` after it, ``A``
averaging the density over each interval's two nodes and each face's two
cells.  The projection couples the interior densities through
``K = I + T (x) A_x* A_x`` (``_spacetime_kernel``) and solves for the
multiplier directly, by matrix products with bases cached per grid.

Step 1 is exact: ``(a, b)`` carry only the kinetic energy, so ``a`` is the
real root of the Benamou-Brenier cubic (``_kinetic_prox``), and ``c``
carries only the entropy, so it is a Wright omega value (``_entropy_prox``).
Omega is evaluated in numpy, from the regional starts of Lawrence, Corless &
Jeffrey (2012) and two Fritsch-Shafer-Crowley steps (``_wright_omega``).

Steps 1-3 form a map ``T`` of the state ``x = (interior m, w, lambda)``,
and the loop runs ``T`` under safeguarded type-II Anderson acceleration
(``anderson_fixed_point``, memory ``ANDERSON_MEMORY = 5``; Zhang,
O'Donoghue & Boyd 2020, Fu, Zhang & Boyd 2020): each step extrapolates
from the last few residuals ``x - T(x)`` and keeps the extrapolated point
only if its residual is no larger than the current one; otherwise the
memory is cleared and the loop goes on from the plain image ``T(x)``.
``iterations``, ``residual_history`` and ``max_outer_iterations`` all
count evaluations of ``T``, that is weighted projections.  The state is
packed flat, its multiplier block ``lambda`` laid out like
``L z = (A m, w, interior m)``; the map keeps ``L z``, ``y`` and the volume
weights in flat buffers of the same layout, so that the scaled multiplier,
the prox input, the relaxed point, the projection input, the ascent and
the consensus norm are each one array operation over the whole block.

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

from .grid import (
    Grid,
    build_grid,
    cell_average,
    covariant_gradient,
    face_average,
    laplace_beltrami,
)
from .transport import (
    ROUNDING,
    DensityPath,
    MomentumField,
    ReferenceMeasure,
    check_marginals,
    continuity_defect,
    continuity_residual,
    dual_value,
    energy_drift,
    energy_profile,
    functional_value,
    potential_from_multiplier,
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

def _kinetic_prox(a, bsq, sigma):
    """Density of the kinetic prox on a face, the Benamou-Brenier cubic.

    The minimizer over ``m >= 0`` and ``b'`` of
    ``|b'|^2 / (2 m) + (|b' - b|^2 + (m - a)^2) / (2 sigma)``, ``bsq = |b|^2``
    in the face metric, has ``b' = b m / (m + sigma)``; with
    ``x = m + sigma`` the first-order condition in ``m`` is the cubic
    ``x^3 - s x^2 - q = 0``, ``s = a + sigma``, ``q = sigma bsq / 2``, whose
    positive root is unique (Descartes).  Cardano gives it unless the
    discriminant is negative, which needs ``s < 0``; then the trigonometric
    form applies, written through ``arcsin`` because the ``arccos``
    argument sits next to -1 when the root is small.  One Newton step on
    ``(m - a)(m + sigma)^2 - q`` in ``m`` itself restores the digits that
    ``x - sigma`` loses when ``m << sigma``.  Cells with
    ``2 sigma a + bsq <= 0`` (the vacuum) sit at the boundary minimum ``m = 0``.
    """
    shape = np.shape(a)
    a = np.atleast_1d(np.asarray(a, dtype=float))     # in-place steps need arrays
    bsq = np.asarray(bsq, dtype=float)
    vacuum = (2.0 * sigma) * a + bsq <= 0.0
    q = (0.5 * sigma) * bsq
    s = a + sigma
    # depressed cubic y^3 + P y + Q = 0 for x = y + s/3, disc = (Q/2)^2 + (P/3)^3
    s_sq = s * s
    cube = s_sq * s
    cube /= 27.0
    half_q = 0.5 * q
    half_q += cube                                         # -Q/2
    disc = 0.25 * q
    disc += cube
    disc *= q
    u = np.sqrt(np.maximum(disc, 0.0))
    np.copysign(u, half_q, out=u)
    u += half_q
    np.cbrt(u, out=u)
    u[u == 0.0] = 1.0
    x = s_sq
    x /= 9.0 * u
    x += u
    x += s / 3.0                                           # Cardano
    trig = disc < 0.0
    if trig.any():
        # there s < 0, so r > 0
        r = np.abs(s[trig]) / 3.0
        q_trig = np.broadcast_to(q, s.shape)[trig]
        alpha = (2.0 / 3.0) * np.arcsin(np.sqrt(np.minimum(q_trig / (4.0 * r ** 3), 1.0)))
        x[trig] = r * (np.sqrt(3.0) * np.sin(alpha) - 2.0 * np.sin(0.5 * alpha) ** 2)
    m = x
    m -= sigma
    np.maximum(m, 0.0, out=m)
    ms = m + sigma
    residual = m - a
    residual *= ms
    residual *= ms
    residual -= q                                          # (m - a)(m + sigma)^2 - q
    slope = 3.0 * m
    slope -= a
    slope -= a
    slope += sigma
    slope *= ms
    residual /= slope
    m -= residual
    m[vacuum] = 0.0
    return m.reshape(shape)


def _wright_omega(x):
    """Wright omega function of real ``x``: the root ``w > 0`` of ``w + log w = x``.

    Lawrence, Corless & Jeffrey (2012) start from ``exp(x)`` below -2, from
    ``exp(2 (x - 1) / 3)`` on ``[-2, 1)`` and from ``x - log x + log x / x``
    above; two steps of the fourth-order Fritsch-Shafer-Crowley iteration
    follow, written so that no intermediate overflows for large ``x``.
    Below -50, ``exp(x)`` is omega to double precision and is returned
    directly; it underflows to 0 below about -745.
    """
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))     # in-place steps need arrays
    xc = np.maximum(x, -50.0)
    high = np.maximum(xc, 1.0)
    log_high = np.log(high)
    w = np.exp(np.where(xc < -2.0, xc, (2.0 / 3.0) * (np.minimum(xc, 1.0) - 1.0)))
    w = np.where(xc < 1.0, w, high - log_high + log_high / high)
    for _ in range(2):
        r = xc - w
        r -= np.log(w)
        t = w + 1.0                                        # 1 + w
        u = (2.0 / 3.0) * r
        u += t
        t = np.divide(r, t, out=t)                         # r / (1 + w)
        step = u - 0.5 * t
        u -= t
        step /= u
        step *= t
        step += 1.0
        w *= step
    if x.min(initial=0.0) < -50.0:
        tail = x < -50.0
        w[tail] = np.exp(x[tail])
    return w.reshape(shape)


def _entropy_prox(a, sigma, eps, V):
    """Entropy prox at an interior node: the minimizer over ``m > 0`` of
    ``eps m (log m + V) + (m - a)^2 / (2 sigma)``, ``eps > 0``.

    The first-order condition ``(m - a)/sigma + eps (log m + V + 1) = 0``
    becomes ``w + log w = z`` for ``m = sigma eps w``, so ``w`` is the Wright
    omega function (``_wright_omega``) of
    ``z = a/(sigma eps) - V - 1 - log(sigma eps)``; it cannot overflow and
    underflows to ``m = 0`` only for ``z`` below about -745.
    """
    se = sigma * eps
    w = _wright_omega(np.asarray(a, dtype=float) / se - (V + 1.0 + np.log(se)))
    w *= se
    return w


# ---------------------------------------------------------------------------
# The space-time kernels
# ---------------------------------------------------------------------------

def _time_modes(grid: Grid, interior: bool):
    """Orthonormal eigenbasis, one mode per row, and eigenvalues of the time
    block ``D^T D`` on the interior nodes when ``interior``, else ``D D^T``
    on the midpoints, ``D`` the node difference onto the midpoints; the
    eigenvalues are ``(2 - 2 cos(pi j / Nt)) / tau^2``."""
    D = np.diff(np.eye(grid.n_time + 1), axis=0)[:, 1:-1] / grid.tau
    lam, basis = np.linalg.eigh(D.T @ D if interior else D @ D.T)
    return basis.T.copy(), lam


def _symmetrized(apply, grid: Grid):
    """Dense ``omega^{1/2} A omega^{-1/2}``, ``omega = sqrt(g)``, of a linear
    operator ``apply`` on the cells of a 1-D grid; symmetric when ``A`` is
    self-adjoint under the cell volumes."""
    wroot = np.sqrt(grid.sqrt_g)
    # row i of A(diag(omega^{-1/2})) is column i of A omega^{-1/2}
    return (apply(np.diag(1.0 / wroot)) * wroot).T


def _pair_average(field, grid: Grid):
    """``A_x* A_x``: the face average of a cell field, brought back to the cells."""
    return cell_average(face_average(field, grid), grid)


def _eigh(S):
    """Eigenpairs of a symmetric matrix; ``ProxError`` when the
    eigen-residual exceeds ``1e-12 |S|``."""
    mu, Q = np.linalg.eigh(S)
    if np.linalg.norm(S @ Q - Q * mu) > 1e-12 * np.linalg.norm(S):
        raise ProxError("eigendecomposition of the spatial operator is inaccurate")
    return mu, Q


@functools.lru_cache(maxsize=16)
def _space_eigenbasis(grid: Grid):
    """Eigenpairs ``(mu, Q)`` of the symmetrized spatial operator
    ``omega^{1/2} (-div_g grad) omega^{-1/2}``, ``omega = sqrt(g)``, from one
    dense ``eigh`` along one axis; cached per grid and read-only.  The flat
    2-D operator is the Kronecker sum of two copies of its axis's: there
    ``Q`` is the axis's eigenbasis, applied along each axis, and ``mu[i, j]``
    the sum of the axis eigenvalues ``i`` and ``j``.
    """
    if grid.dim == 2:
        mu, Q = _space_eigenbasis(_axis_grid(grid))
        mu = mu[:, None] + mu[None, :]
        mu.flags.writeable = False
        return mu, Q
    mu, Q = _eigh(_symmetrized(lambda f: -laplace_beltrami(f, grid), grid))
    mu.flags.writeable = False
    Q.flags.writeable = False
    return mu, Q


def _axis_grid(grid: Grid):
    """The flat 1-D grid of one axis of the flat 2-D torus."""
    return build_grid(1, grid.n_space, grid.n_time, grid.horizon, length=grid.length)


def _pseudo_inverse(sym):
    """Reciprocal of a nonnegative symbol off its kernel, read-only: the
    entries below ``1e-12`` of the largest are masked to 0."""
    inv = np.zeros_like(sym)
    mask = sym > 1e-12 * sym.max()
    inv[mask] = 1.0 / sym[mask]
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=32)
def _spacetime_kernel(grid: Grid, kind: str):
    """The factors ``(basis, spatial)`` of one space-time solve, cached per
    grid and read-only; ``_solve`` applies them.

    ``kind`` ``"coupling"`` is ``K = I + T (x) S`` on the interior nodes:
    ``I + t_j S`` per time mode ``j``.  ``"plain"`` and ``"weighted"`` are
    ``spacetime_poisson``'s operator: ``lam_j (I + t_j S)^{-1} + L`` per
    time mode of the midpoints, with ``t_j = 0`` for the plain one.  Here
    ``lam_j`` is ``_time_modes``'s eigenvalue, ``t_j = 1 - tau^2 lam_j / 4``
    that of ``T = [1/4, 1/2, 1/4]``, ``L = -div_g grad`` and ``S = A_x* A_x``.  On
    flat grids ``spatial = (Q, inv)``, the spatial eigenbasis, which
    diagonalizes ``S`` as well as ``L``, and the pseudo-inverse symbol; on
    the conformal circle, where they do not commute, one dense
    pseudo-inverse block per mode.  The only masked mode is the constant.
    """
    basis, lam = _time_modes(grid, interior=kind == "coupling")
    t = np.zeros_like(lam) if kind == "plain" else 1.0 - 0.25 * grid.tau ** 2 * lam
    if grid.flat:
        mu, Q = _space_eigenbasis(grid)
        axis = grid if grid.dim == 1 else _axis_grid(grid)
        s = np.einsum("ij,ij->j", Q, _symmetrized(lambda f: _pair_average(f, axis), axis) @ Q)
        if grid.dim == 2:
            s = s[:, None] + s[None, :]
        lam, t = (v.reshape((-1,) + (1,) * grid.dim) for v in (lam, t))
        op = 1.0 + t * s if kind == "coupling" else lam / (1.0 + t * s) + mu
        spatial = (Q, _pseudo_inverse(op))
    else:
        L = _symmetrized(lambda f: -laplace_beltrami(f, grid), grid)
        S = _symmetrized(lambda f: _pair_average(f, grid), grid)
        wroot = np.sqrt(grid.sqrt_g)
        blocks = []
        for lam_j, t_j in zip(lam, t):
            op = np.eye(grid.n_space) + t_j * S
            if kind != "coupling":
                op = lam_j * np.linalg.inv(op) + L
            nu, U = _eigh(0.5 * (op + op.T))
            blocks.append((U * _pseudo_inverse(nu)) @ U.T * wroot / wroot[:, None])
        spatial = np.array(blocks)
        spatial.flags.writeable = False
    basis.flags.writeable = False
    return basis, spatial


def _along_space(field, matrix, dim):
    """Apply ``matrix`` along every spatial axis of a space-time field."""
    if dim == 1:
        return field @ matrix
    return matrix.T @ field @ matrix


def _solve(rhs, kind, grid: Grid):
    """Apply the pseudo-inverse of a ``_spacetime_kernel`` to ``rhs``."""
    basis, spatial = _spacetime_kernel(grid, kind)
    hat = (basis @ rhs.reshape(len(basis), -1)).reshape(rhs.shape)
    if grid.flat:
        Q, inv = spatial
        hat = _along_space(_along_space(hat, Q, grid.dim) * inv, Q.T, grid.dim)
    else:
        hat = np.matmul(spatial, hat[..., None])[..., 0]
    return (basis.T @ hat.reshape(len(basis), -1)).reshape(rhs.shape)


def _apply_operator(phi, grid: Grid, weighted):
    """Forward application of the space-time operator by its stencils: the
    time block is ``D K^{-1} D^T`` for the node difference ``D`` onto the
    midpoints and, when ``weighted``, the coupling ``K`` (else the identity)."""
    psi = (phi[:-1] - phi[1:]) / grid.tau
    if weighted:
        psi = _solve(psi, "coupling", grid)
    out = -laplace_beltrami(phi, grid)
    out[:-1] += psi / grid.tau
    out[1:] -= psi / grid.tau
    return out


def spacetime_poisson(rhs, grid: Grid, weighted=False):
    """Solve the space-time problem ``(D K^{-1} D^T - Lap_g) phi = rhs`` on
    the Nt midpoints, ``D`` the difference from the interior nodes onto the
    midpoints: ``K`` is the identity for the plain projection, whose time
    block is the Neumann Laplacian ``-d_tt``, and the splitting's coupling
    when ``weighted``.  Periodic in space, mean-zero gauge: the rhs loses its
    component along the kernel, the space-time constants, and the solution
    is sqrt(g)-orthogonal to them.  Direct, by the cached factors of
    ``_spacetime_kernel``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n_time,) + grid.space_shape:
        raise ValueError(f"rhs shape {rhs.shape}, expected {(grid.n_time,) + grid.space_shape}")
    return _solve(rhs, "weighted" if weighted else "plain", grid)


# ---------------------------------------------------------------------------
# Continuity projections
# ---------------------------------------------------------------------------

def project_continuity(m: DensityPath, w: MomentumField, m0, m1, grid: Grid):
    """Volume-weighted projection onto the discrete continuity set.

    The affine set is { d_t m - div_g w = 0, m(0) = m0, m(T) = m1 }; the
    projection is computed from a single space-time solve for the
    constraint multiplier ``phi`` and the adjoint correction
    ``m -= D^T phi``, ``w -= grad phi``.  Idempotent, and the continuity
    residual after projection is at rounding level for marginals of equal
    mass.  Returns the projected pair.
    """
    m_new = m.values.copy()
    m_new[0] = m0
    m_new[-1] = m1
    phi = spacetime_poisson(continuity_defect(DensityPath(m_new, grid), w), grid)
    m_new[1:-1] -= (phi[:-1] - phi[1:]) / grid.tau
    return (DensityPath(m_new, grid),
            MomentumField(w.values - covariant_gradient(phi, grid), grid))


def _end_coupling(m0, m1, grid: Grid):
    """``A_int* A m_ends``: ``S m0 / 4`` and ``S m1 / 4``, the marginals'
    share of the first and last interior node's normal equation."""
    return 0.25 * _pair_average(np.stack((m0, m1)), grid)


def _weighted_projection(qa, qb, qc, m0, m1, grid: Grid, end_coupling):
    """Constrained least-squares step of the splitting.

    Minimizes ``|A m - qa|^2 + |w - qb|^2_g + |m_int - qc|^2``, with the face
    and cell volumes as weights, over the continuity set (endpoints pinned
    to the marginals).  Reduces to the normal equations
    ``K m_int = A*(qa - A m_ends) + qc`` (``end_coupling``), one weighted
    space-time solve for the multiplier ``phi``, and the correction
    ``m_int -= K^{-1} D^T phi``, ``w = qb - grad phi``.  Returns
    ``(m_full, w, phi)``.
    """
    qa_cells = cell_average(qa, grid)
    rhs_m = 0.5 * (qa_cells[:-1] + qa_cells[1:]) + qc
    rhs_m[0] -= end_coupling[0]
    rhs_m[-1] -= end_coupling[1]
    m_new = np.empty((grid.n_time + 1,) + grid.space_shape)
    m_new[0] = m0
    m_new[-1] = m1
    m_new[1:-1] = _solve(rhs_m, "coupling", grid)

    r = continuity_defect(DensityPath(m_new, grid), MomentumField(qb, grid))
    phi = spacetime_poisson(r, grid, weighted=True)
    m_new[1:-1] -= _solve((phi[:-1] - phi[1:]) / grid.tau, "coupling", grid)
    return m_new, qb - covariant_gradient(phi, grid), phi


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

    Raises ``ValueError`` for marginals with a negative cell or a mass off
    1 (``transport.check_marginals``) and ``ProxError`` when the projection
    budget is exhausted, carrying the last projected pair and the residual
    history.
    """
    config = (config or ProxConfig()).validate()
    m0, m1 = check_marginals(m0, m1, grid)
    if eps <= 0:
        raise ValueError("eps must be positive")

    t0 = time.perf_counter()
    r = config.penalty
    Nt = grid.n_time
    tau = grid.tau

    # start: linear interpolation of the marginals, zero momentum, projected
    frac = (np.arange(Nt + 1) / Nt).reshape((-1,) + (1,) * grid.dim)
    start = project_continuity(DensityPath((1.0 - frac) * m0 + frac * m1, grid),
                               MomentumField(np.zeros((Nt,) + grid.space_shape + (grid.dim,)),
                                             grid), m0, m1, grid)
    m_full, w = start[0].values, start[1].values

    # The map's state x = (interior m, w, lam) is packed flat, and the
    # multiplier block lam is laid out like L z = (A m, w, interior m); so are
    # the buffers of L z, of y = (a, b, c) and of the consensus weights.
    interior = m_full[1:-1].shape
    n_m, n_w = int(np.prod(interior)), w.size
    x = np.concatenate((m_full[1:-1].ravel(), w.ravel(), np.zeros(2 * n_w + n_m)))

    def blocks(flat):
        """The ``(a, b, c)`` views of a flat array laid out like ``L z``."""
        return (flat[:n_w].reshape(w.shape), flat[n_w:2 * n_w].reshape(w.shape),
                flat[2 * n_w:].reshape(interior))

    V = reference.potential_V
    sigma = 1.0 / r
    res_history = []
    obj_history = []
    face_weight = np.broadcast_to(grid.face_volume * tau, w.shape)
    consensus_weight = np.concatenate((
        face_weight.ravel(), (grid.face_metric * face_weight).ravel(),
        np.broadcast_to(grid.cell_volume * tau, interior).ravel()))
    lz, y = np.empty(2 * n_w + n_m), np.empty(2 * n_w + n_m)
    lz_a, lz_b, lz_c = blocks(lz)
    y_a, y_b, y_c = blocks(y)
    path = m_full.copy()            # endpoints stay the marginals
    end_coupling = _end_coupling(m0, m1, grid)
    last = {"gap": np.inf}

    def image_of(density, momentum):
        """Fill ``lz`` with ``L z`` of a staggered pair."""
        lz_a[...] = face_average(0.5 * (density[:-1] + density[1:]), grid)
        lz_b[...] = momentum
        lz_c[...] = density[1:-1]

    def admm_map(state):
        lam = state[n_m + n_w:]
        path[1:-1] = state[:n_m].reshape(interior)
        image_of(path, state[n_m:n_m + n_w].reshape(w.shape))

        # 1. pointwise prox on the copies, one kinetic cell per face
        scaled = lam / r
        pa, pb, pc = blocks(lz + scaled)
        y_a[...] = _kinetic_prox(pa, grid.face_metric * pb * pb, sigma)
        y_b[...] = pb * (y_a / (y_a + sigma))
        y_c[...] = _entropy_prox(pc, sigma, eps, V)

        # 2. weighted continuity projection of the relaxed point
        h = RELAXATION * y + (1.0 - RELAXATION) * lz
        m_new, w_new, phi = _weighted_projection(*blocks(h - scaled), m0, m1, grid,
                                                 end_coupling)

        # 3. relaxed multiplier ascent; consensus is measured against y = (a, b, c)
        image_of(m_new, w_new)
        out = np.empty_like(state)
        out[:n_m] = lz[2 * n_w:]
        out[n_m:n_m + n_w] = lz[n_w:2 * n_w]
        out[n_m + n_w:] = lam + r * (lz - h)
        defect = lz - y
        res_history.append(float(np.sqrt(defect * defect @ consensus_weight)))
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
    u = potential_from_multiplier(r * phi, m_full, reference, eps, grid)

    duality_gap = abs(u.cross_pairing(m0, m1) - obj)
    drift = energy_drift(energy_profile(m, u, reference, eps))

    # the velocity w / M against grad u on the faces, weighted by M
    M = face_average(m.midpoints(), grid)
    v = np.divide(w, M, out=np.zeros_like(w), where=M > 1e-14)
    gap_sq = grid.face_metric * (v - covariant_gradient(-r * phi, grid)) ** 2
    vdisc = float(np.sqrt(np.sum(gap_sq * M * face_weight)))

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
