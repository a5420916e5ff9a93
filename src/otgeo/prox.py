"""Primal solver: proximal splitting of the kinetic + entropy action.

The discrete functional is minimized over staggered pairs ``(m, w)``
(momenta on the cell faces, ``grid``) subject to the continuity constraint
by over-relaxed ADMM (Eckstein & Bertsekas 1992, ``alpha = RELAXATION =
1.5``).  Pointwise copies ``y = (a, b, c)`` carry the energies (``a``: the
face density for the kinetic kernel, ``b``: momentum, ``c``: interior-node
density for the entropy), the staggered copy is kept exactly feasible by a
weighted projection onto the continuity set, and a multiplier enforces
consensus between ``y`` and ``L z = (A m, w, interior m)``, ``A`` averaging
the density over each interval's two nodes and each face's two cells.
After one step ``L z = P_C(t)`` and ``lambda / r = P_C(t) - t`` depend on
the projection input ``t`` alone, so the loop runs the splitting in its
relaxed Douglas-Rachford form, a map of ``t`` laid out like ``L z``:

    1. weighted continuity projection            (m, w, phi), L z = P_C(t)
    2. pointwise prox of the reflection          y = prox(2 L z - t)
    3. relaxed step                              T(t) = t + alpha (y - L z).

The projection couples the interior densities through
``K = I + T (x) A_x* A_x`` and solves the normal equations for them and the
multiplier together: in the time modes they split into one small block per
mode pair, and ``_projection_operator`` caches the blocks' inverse per grid
(four symbols on flat grids, one dense block per mode on the conformal
circle), so a projection is one pass into the modes and one back
(``_solve_in_modes``).  With the coupling switched off, ``K = I``, the same
operator and pass serve the unweighted ``project_continuity`` through
``spacetime_poisson``: one space-time operator for both projections.

Step 2 is exact: ``(a, b)`` carry only the kinetic energy, so ``a`` is the
real root of the Benamou-Brenier cubic (``_kinetic_prox``), and ``c``
carries only the entropy, so it is a Wright omega value (``_entropy_prox``).
Omega is evaluated in numpy, from the regional starts of Lawrence, Corless &
Jeffrey (2012) and two Fritsch-Shafer-Crowley steps (``_wright_omega``).

The start is the projected interpolation of the marginals, ``z_0``; ADMM's
first half step from it, with a zero multiplier, gives
``t_1 = L z_0 + alpha (prox(L z_0) - L z_0)``, so that projection ``k`` of
the loop is ADMM's projection ``k``.  The loop runs ``T`` under
safeguarded type-II Anderson acceleration (``anderson_fixed_point``,
memory ``ANDERSON_MEMORY = 7``; Zhang, O'Donoghue & Boyd 2020, Fu, Zhang &
Boyd 2020): each step extrapolates from the last few residuals
``t - T(t)`` and keeps the extrapolated point only if its residual is no
larger than the current one; otherwise the memory is cleared and the loop
goes on from the plain image ``T(t)``.  A step passes over its memory
twice, once for the new Gram row and once for the extrapolation; the
products of the differences with the current residual are kept from
step to step.  ``iterations``,
``residual_history`` and ``max_outer_iterations`` all count evaluations
of ``T``, that is weighted projections; ``residual_history`` holds the
consensus ``|y - L z|`` within each map, in the volume weights.

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
from types import SimpleNamespace

import numpy as np

from .grid import (
    Grid,
    build_grid,
    cell_average,
    covariant_gradient,
    divergence_g,
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

# Over-relaxation factor alpha of the splitting; 1 is plain ADMM.
RELAXATION = 1.5
# Number of past steps the Anderson acceleration of the splitting's map mixes.
ANDERSON_MEMORY = 7


class ProxError(Exception):
    """Solver failure carrying the best iterate and the residual history."""

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = history


def _positive_real(value):
    """Whether ``value`` is a finite positive real number (a ``bool`` is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < np.inf


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
            if not _positive_real(value):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name, least in (("max_outer_iterations", 1), ("stagnation_window", 1),
                            ("min_iterations", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
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
    # primal only: gap checks skipped because the projected density had a negative cell
    skipped_gap_checks: int = None
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
        if self.certified_gap is not None:                 # primal route only
            out["certified_gap"] = float(self.certified_gap)
            out["skipped_gap_checks"] = int(self.skipped_gap_checks)
        if include_volatile:
            out["wall_time"] = float(self.wall_time)
        return out


# ---------------------------------------------------------------------------
# Pointwise prox
# ---------------------------------------------------------------------------

def _kinetic_prox(a, bsq, sigma, out=None):
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
    ``out``, of the shape of ``a`` (an array or a scalar), receives the density.
    """
    if np.ndim(a) == 0:                                    # in-place steps need arrays
        return _kinetic_prox(np.array([a], dtype=float), bsq, sigma)[0]
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
    x = np.divide(s_sq, 9.0 * u, out=out)
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
    return m


def _wright_omega(x):
    """Wright omega function of real ``x``: the root ``w > 0`` of ``w + log w = x``.

    Lawrence, Corless & Jeffrey (2012) start from ``exp(x)`` below -2, from
    ``exp(2 (x - 1) / 3)`` on ``[-2, 1)`` and from ``x - log x + log x / x``
    above; two steps of the fourth-order Fritsch-Shafer-Crowley iteration
    follow, written so that no intermediate overflows for large ``x``.
    Below -50, ``exp(x)`` is omega to double precision and is returned
    directly; it underflows to 0 below about -745.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:                                        # in-place steps need arrays
        return _wright_omega(x[None])[0]
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
    return w


def _entropy_prox(a, sigma, eps, V, out=None, shift=None):
    """Entropy prox at an interior node: the minimizer over ``m > 0`` of
    ``eps m (log m + V) + (m - a)^2 / (2 sigma)``, ``eps > 0``.

    The first-order condition ``(m - a)/sigma + eps (log m + V + 1) = 0``
    becomes ``w + log w = z`` for ``m = sigma eps w``, so ``w`` is the Wright
    omega function (``_wright_omega``) of
    ``z = a/(sigma eps) - shift``, ``shift = V + 1 + log(sigma eps)`` (a
    caller may hold it); it cannot overflow and underflows to ``m = 0`` only
    for ``z`` below about -745.  ``out``, of ``a``'s shape, receives ``m``.
    """
    se = sigma * eps
    z = np.divide(a, se, out=out)
    z -= V + 1.0 + np.log(se) if shift is None else shift
    return np.multiply(_wright_omega(z), se, out=out)


# ---------------------------------------------------------------------------
# The space-time operator
# ---------------------------------------------------------------------------

def _time_difference(grid: Grid):
    """``D``, the node difference from the interior nodes onto the midpoints,
    as a dense ``Nt x (Nt - 1)`` matrix."""
    return np.diff(np.eye(grid.n_time + 1), axis=0)[:, 1:-1] / grid.tau


def _time_modes(grid: Grid, interior: bool):
    """Orthonormal eigenbasis, one mode per row, and eigenvalues of the time
    block ``D^T D`` on the interior nodes when ``interior``, else ``D D^T``
    on the midpoints, ``D = _time_difference(grid)``; the eigenvalues are
    ``(2 - 2 cos(pi j / Nt)) / tau^2``, ascending."""
    D = _time_difference(grid)
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


@functools.lru_cache(maxsize=16)
def _projection_operator(grid: Grid, coupled):
    """The inverse of the continuity projections' normal equations in the
    time modes, cached per grid and coupling and read-only.

    With ``D`` the node difference onto the midpoints (``_time_difference``),
    ``K = I + T (x) S`` the coupling of the interior densities,
    ``T = [1/4, 1/2, 1/4]``, ``S = A_x* A_x`` and ``L = -div_g grad``, the
    corrected interior density ``m`` and the multiplier ``phi`` solve

        K m + D^T phi = rhs_m,        -D m + L phi = rhs_phi.

    ``_weighted_projection`` solves them ``coupled``; uncoupled, ``K = I``,
    they are ``project_continuity``'s, and with ``rhs_m = 0`` the multiplier
    solves ``(D D^T + L) phi = rhs_phi``, the operator of
    ``spacetime_poisson``.  The time bases of ``_time_modes`` take ``D`` to
    ``C = basis_mid D basis_int^T``, nonzero only at
    ``C[j+1, j] = c_j = +-sqrt(lam_j)``, and ``T`` to
    ``t_j = 1 - tau^2 lam_j / 4`` (``t_j = 0`` uncoupled).  So interior mode
    ``j`` and midpoint mode ``j + 1`` form the block
    ``[[I + t_j S, c_j], [-c_j, L]]``, invertible since ``c_j != 0``, and
    midpoint mode 0 is ``L`` alone, whose pseudo-inverse masks the constants.
    On flat grids one spatial eigenbasis ``Q`` diagonalizes ``S`` and ``L``:
    ``spatial = (Q, (a, b, c, d))``, the symbols of the inverse,
    ``m = a rhs_m + b rhs_phi`` and ``phi = c rhs_m + d rhs_phi`` per mode
    pair (``d`` has one more time mode, the first).  On the conformal circle
    ``spatial`` holds one dense inverse of order ``2 n`` per midpoint mode,
    acting on ``(rhs_m, rhs_phi)`` stacked; the first block's ``rhs_m`` rows
    and columns are zero.  Returns ``(basis_int, basis_mid, spatial)``.
    """
    basis_int, lam = _time_modes(grid, interior=True)
    basis_mid, _ = _time_modes(grid, interior=False)
    c = np.diagonal(basis_mid @ _time_difference(grid) @ basis_int.T, -1)
    t = 1.0 - 0.25 * grid.tau ** 2 * lam if coupled else np.zeros_like(lam)
    mu, Q = _space_eigenbasis(grid)
    if grid.flat:
        axis = grid if grid.dim == 1 else _axis_grid(grid)
        s = np.einsum("ij,ij->j", Q, _symmetrized(lambda f: _pair_average(f, axis), axis) @ Q)
        if grid.dim == 2:
            s = s[:, None] + s[None, :]
        c, t = (v.reshape((-1,) + (1,) * grid.dim) for v in (c, t))
        kappa = 1.0 + t * s
        det = c * c + kappa * mu
        symbols = (mu / det, -c / det, c / det,
                   np.concatenate((_pseudo_inverse(mu)[None], kappa / det)))
        for symbol in symbols:
            symbol.flags.writeable = False
        spatial = (Q, symbols)
    else:
        n = grid.n_space
        eye = np.eye(n)
        L = _symmetrized(lambda f: -laplace_beltrami(f, grid), grid)
        S = _symmetrized(lambda f: _pair_average(f, grid), grid)
        first = np.zeros((2 * n, 2 * n))
        first[n:, n:] = (Q * _pseudo_inverse(mu)) @ Q.T
        blocks = [first] + [np.linalg.inv(np.block([[eye + t_j * S, c_j * eye],
                                                    [-c_j * eye, L]]))
                            for c_j, t_j in zip(c, t)]
        wroot = np.tile(np.sqrt(grid.sqrt_g), 2)
        spatial = np.array(blocks) * wroot / wroot[:, None]
        spatial.flags.writeable = False
    basis_int.flags.writeable = False
    basis_mid.flags.writeable = False
    return basis_int, basis_mid, spatial


def _along_space(field, matrix, dim, out=None, work=None):
    """Apply ``matrix`` along every spatial axis of a space-time field (into ``out``)."""
    if dim == 1:
        return np.matmul(field, matrix, out=out)
    return np.matmul(np.matmul(matrix.T, field, out=work), matrix, out=out)


def _mode_work(grid: Grid, coupled):
    """The cached ``operator`` and the arrays of :func:`_solve_in_modes`, made
    once for any number of passes: ``rhs_m`` and ``rhs_phi`` to fill, the path
    ``m`` (interior solved, endpoints the caller's), ``phi``, the modes and
    ``tmp``, one row per node, midpoint or mode (``time_in`` and ``time_out``
    view them as ``(time, cells)``), and a momentum ``w``."""
    Nt, shape = grid.n_time, grid.space_shape
    work = SimpleNamespace(operator=_projection_operator(grid, coupled),
                           m=np.empty((Nt + 1,) + shape), w=np.empty((Nt,) + shape + (grid.dim,)))
    work.rhs_m = np.zeros((Nt - 1,) + shape)
    work.rhs_phi, work.phi, work.tmp = np.empty((3, Nt) + shape)
    # conformal: rhs_m's modes sit one mode up beside rhs_phi's; the first stays 0
    stacked, solved = np.zeros((2, Nt, 2) + shape)
    work.spatial_modes = stacked.reshape(Nt, -1, 1), solved.reshape(Nt, -1, 1)
    work.r, work.b, work.r_sp, work.b_sp = stacked[1:, 0], stacked[:, 1], solved[1:, 0], solved[:, 1]
    rows = [a.reshape(len(a), -1) for a in (work.rhs_m, work.r, work.rhs_phi, work.b,
                                            work.r_sp, work.m[1:-1], work.b_sp, work.phi)]
    work.time_in, work.time_out = rows[:4], rows[4:]
    return work


def _solve_in_modes(work, grid: Grid):
    """Solve the normal equations of ``work.operator`` (``_mode_work``) for
    ``rhs_m`` and ``rhs_phi`` by one pass into the time and spatial modes and
    one back, into the interior of ``work.m`` and ``work.phi``; returns both."""
    basis_int, basis_mid, spatial = work.operator
    rhs_m, r, rhs_phi, b = work.time_in
    np.matmul(basis_int, rhs_m, out=r)
    np.matmul(basis_mid, rhs_phi, out=b)
    if grid.flat:
        Q, (sa, sb, sc, sd) = spatial
        r, b, r_sp, b_sp, tmp = work.r, work.b, work.r_sp, work.b_sp, work.tmp  # space-shaped
        _along_space(r, Q, grid.dim, r_sp, tmp[1:])
        _along_space(b, Q, grid.dim, b_sp, tmp)
        np.multiply(sa, r_sp, out=r)
        r += np.multiply(sb, b_sp[1:], out=tmp[1:])
        np.multiply(sd, b_sp, out=b)
        b[1:] += np.multiply(sc, r_sp, out=tmp[1:])
        _along_space(r, Q.T, grid.dim, r_sp, tmp[1:])
        _along_space(b, Q.T, grid.dim, b_sp, tmp)
    else:
        np.matmul(spatial, work.spatial_modes[0], out=work.spatial_modes[1])
    r_sp, m_int, b_sp, phi = work.time_out
    np.matmul(basis_int.T, r_sp, out=m_int)
    np.matmul(basis_mid.T, b_sp, out=phi)
    return work.m, work.phi


def spacetime_poisson(rhs, grid: Grid):
    """Solve the space-time problem ``(D D^T - Lap_g) phi = rhs`` on the Nt
    midpoints, ``D`` the difference from the interior nodes onto the
    midpoints, so that the time block is the Neumann Laplacian ``-d_tt``.
    Periodic in space, mean-zero gauge: the rhs loses its component along
    the kernel, the space-time constants, and the solution is
    sqrt(g)-orthogonal to them.  Direct, by the one cached space-time
    operator of the projections, ``_projection_operator``, uncoupled and
    with no density right-hand side.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n_time,) + grid.space_shape:
        raise ValueError(f"rhs shape {rhs.shape}, expected {(grid.n_time,) + grid.space_shape}")
    work = _mode_work(grid, coupled=False)
    work.rhs_phi[...] = rhs
    return _solve_in_modes(work, grid)[1]


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


def _weighted_projection(qa, qb, qc, m0, m1, grid: Grid, end_coupling, work=None):
    """Constrained least-squares step of the splitting.

    Minimizes ``|A m - qa|^2 + |w - qb|^2_g + |m_int - qc|^2``, with the face
    and cell volumes as weights, over the continuity set (endpoints pinned
    to the marginals).  With ``w = qb - grad phi`` the optimality conditions
    are the normal equations of ``_projection_operator``, whose right-hand
    sides are ``rhs_m = A*(qa - A m_ends) + qc`` (``end_coupling``) and
    ``rhs_phi = -div_g qb`` plus the marginals' time differences; one pass
    into the time and spatial modes and one back give ``m_int`` and ``phi``.
    Returns ``(m_full, w, phi)``, arrays of ``work`` (``_mode_work``, coupled).
    """
    work = work or _mode_work(grid, coupled=True)
    rhs_m, rhs_phi, tau = work.rhs_m, work.rhs_phi, grid.tau
    cells = cell_average(qa, grid, out=work.tmp)
    np.add(np.multiply(np.add(cells[:-1], cells[1:], out=rhs_m), 0.5, out=rhs_m), qc, out=rhs_m)
    rhs_m[0] -= end_coupling[0]
    rhs_m[-1] -= end_coupling[1]
    divergence_g(qb, grid, out=rhs_phi)
    rhs_phi[0] += m0 / tau
    rhs_phi[-1] -= m1 / tau
    np.negative(rhs_phi, out=rhs_phi)

    m_new, phi = _solve_in_modes(work, grid)
    m_new[0] = m0
    m_new[-1] = m1
    return m_new, np.subtract(qb, covariant_gradient(phi, grid, out=work.w), out=work.w), phi


# ---------------------------------------------------------------------------
# Anderson acceleration and the splitting's driver
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
    times its trace.  The right-hand side ``dG g`` is kept, not recomputed:
    when ``g`` becomes ``g' = g + dg`` with ``dg`` the new difference, each
    kept row's product gains its Gram entry with ``dg`` and the new row's
    product is one dot ``dg . g'``.  A step thus passes over the memory
    twice, for the Gram row and for ``dF gamma``.  ``x~`` is kept only when
    ``|T(x~) - x~| <= |T(x) - x|``; otherwise the memory is cleared and the
    iteration continues from the plain image ``T(x)`` (Fu, Zhang & Boyd
    2020).  With an empty memory, or differences that are all zero, the step
    is the plain image.  The loop holds the last image and may pass it back
    as the next point, so ``apply`` must not write into its argument and
    must return a new array.
    """
    memory = ANDERSON_MEMORY
    d_g = np.empty((memory, x.size))
    d_f = np.empty((memory, x.size))
    gram = np.zeros((memory, memory))
    g_dots = np.zeros(memory)                     # d_g[:count] @ g, kept step to step
    ridged = np.empty(memory * memory)            # count x count at its head
    g, g_trial = np.empty((2, x.size))            # residuals, swapped each step
    count = slot = evaluations = 0

    def evaluate(y, residual):
        nonlocal evaluations
        image, stop = apply(y)
        evaluations += 1
        np.subtract(y, image, out=residual)
        return image, np.sqrt(residual @ residual), stop

    fx, g_norm, stop = evaluate(x, g)
    while not stop and evaluations < max_evaluations:
        trial = fx
        trace = gram[:count, :count].trace()
        extrapolated = trace > 0
        if extrapolated:
            square = ridged[:count * count].reshape(count, count)
            square[...] = gram[:count, :count]
            ridged[:count * count:count + 1] += 1e-12 * trace
            gamma = np.linalg.solve(square, g_dots[:count])
            trial = fx - gamma @ d_f[:count]
        f_trial, g_trial_norm, stop = evaluate(trial, g_trial)
        if extrapolated and g_trial_norm > g_norm and not stop and evaluations < max_evaluations:
            count = slot = 0
            f_trial, g_trial_norm, stop = evaluate(fx, g_trial)
        np.subtract(g_trial, g, out=d_g[slot])
        np.subtract(f_trial, fx, out=d_f[slot])
        count = min(count + 1, memory)
        gram[slot, :count] = gram[:count, slot] = d_g[:count] @ d_g[slot]
        g_dots[:count] += gram[:count, slot]      # d_g[i] @ g_trial = d_g[i] @ (g + d_g[slot])
        g_dots[slot] = d_g[slot] @ g_trial
        slot = (slot + 1) % memory
        fx, g_norm = f_trial, g_trial_norm
        g, g_trial = g_trial, g
    return evaluations, stop


def solve_prox(m0, m1, reference: ReferenceMeasure, eps, grid: Grid,
               config: ProxConfig = None):
    """Minimize the discrete functional over continuity-feasible pairs.

    Returns ``(DensityPath, MomentumField, Potential, SolveReport)``.  The
    density path is the projected (feasible to machine precision) copy;
    the potential is the constraint multiplier, sign-fixed and shifted so
    that its terminal trace pairs to zero against ``m1``.

    ``report.iterations`` counts weighted projections, that is evaluations
    of the map; ``report.residual_history`` holds the consensus ``|y - L z|``
    within each (``consensus_gap`` the last), ``report.objective_history``
    ``F_eps`` at each gap check and ``skipped_gap_checks`` the checks
    skipped for a negative density.

    Raises ``ValueError`` for marginals with a non-finite or negative cell
    or a mass off 1 (``transport.check_marginals``) and ``ProxError`` when
    the projection budget is exhausted, carrying the last projected pair and
    the residual history.
    """
    config = (config or ProxConfig()).validate()
    m0, m1 = check_marginals(m0, m1, grid)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")

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

    # The map's state t, the projection input, is laid out like L z = (A m, w,
    # interior m); so are the buffers of L z, y, the prox input and the weights.
    faces, interior = w.shape, m_full[1:-1].shape
    n_m, n_w = m_full[1:-1].size, w.size

    V = reference.potential_V
    sigma = 1.0 / r
    shift = V + 1.0 + np.log(sigma * eps)            # _entropy_prox's, once a solve
    res_history = []
    obj_history = []
    face_weight = np.broadcast_to(grid.face_volume * tau, faces)
    consensus_weight = np.concatenate((
        face_weight.ravel(), (grid.face_metric * face_weight).ravel(),
        np.broadcast_to(grid.cell_volume * tau, interior).ravel()))

    def blocks(v):
        """The ``(a, b, c)`` blocks of a flat array laid out like ``L z``."""
        return v[:n_w].reshape(faces), v[n_w:2 * n_w].reshape(faces), v[2 * n_w:].reshape(interior)

    lz, y, work = np.empty((3, 2 * n_w + n_m))
    (lz_a, lz_b, lz_c), (y_a, y_b, y_c), (pa, pb, pc) = map(blocks, (lz, y, work))
    projection = _mode_work(grid, coupled=True)
    projection.w = lz_b             # the projected momentum is L z's middle block
    mid = projection.tmp            # free outside the projection
    end_coupling = _end_coupling(m0, m1, grid)
    last = {"gap": np.inf, "skipped": 0}

    def image_of(density):
        """Fill the density blocks of ``lz``, ``A m`` and interior ``m``."""
        np.multiply(np.add(density[:-1], density[1:], out=mid), 0.5, out=mid)
        face_average(mid, grid, out=lz_a)
        lz_c[...] = density[1:-1]

    def relaxed_step(t):
        """``t + alpha (y - L z)``, a new array, for ``y = prox(2 L z - t)``
        (``|b|^2`` waits in ``y_b``); leaves ``y - L z`` in ``work``."""
        np.subtract(np.multiply(lz, 2.0, out=work), t, out=work)
        bsq = np.multiply(np.multiply(grid.face_metric, pb, out=y_b), pb, out=y_b)
        _kinetic_prox(pa, bsq, sigma, y_a)
        np.multiply(np.divide(y_a, np.add(y_a, sigma, out=y_b), out=y_b), pb, out=y_b)
        _entropy_prox(pc, sigma, eps, V, y_c, shift)
        out = np.multiply(np.subtract(y, lz, out=work), RELAXATION)
        out += t
        return out

    def dr_map(t):
        # reads t only: Anderson may pass the image it still holds
        # 1. weighted continuity projection of t and its image L z
        m_new, w_new, phi = _weighted_projection(*blocks(t), m0, m1, grid, end_coupling,
                                                 projection)
        image_of(m_new)

        # 2. pointwise prox of the reflection, relaxed step, consensus |y - L z|
        out = relaxed_step(t)
        res_history.append(float(np.sqrt(np.multiply(work, work, out=work) @ consensus_weight)))

        # 3. certified stop: F at the projected pair against G at its multiplier;
        # weak duality needs the pair feasible, so a negative density is not checked
        since = len(res_history) - config.min_iterations
        if since < 0 or since % config.stagnation_window:
            return out, False
        if m_new.min() < 0:
            last["skipped"] += 1
            return out, False
        obj = functional_value(DensityPath(m_new, grid), MomentumField(w_new, grid),
                               reference, eps)
        gap = obj - dual_value(r * phi, m0, m1, reference, eps, grid)
        obj_history.append(obj)
        last.update(obj=obj, gap=gap)
        scale = 1.0 + abs(obj)
        return out, bool(np.isfinite(obj)
                         and -ROUNDING * scale <= gap <= config.gap_tolerance * scale)

    # ADMM's half step from the projected start, zero multiplier (at t = L z the
    # reflection 2 L z - t is L z): projection k of the loop is then ADMM's k
    image_of(m_full)
    lz_b[...] = w
    t = relaxed_step(lz)

    iterations, converged = anderson_fixed_point(dr_map, t, config.max_outer_iterations)
    res_history = np.asarray(res_history)
    obj_history = np.asarray(obj_history)
    m_full, w, phi = projection.m, projection.w, projection.phi
    consensus, gap, skipped = res_history[-1], last["gap"], last["skipped"]
    if not converged:
        raise ProxError(
            f"no convergence in {config.max_outer_iterations} projections (consensus gap "
            f"{consensus:.3e}, certified gap {gap:.3e}, {skipped} gap checks skipped)",
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
        skipped_gap_checks=skipped,
        residual_history=res_history,
        objective_history=obj_history,
        converged=converged,
    )
    return m, mom, u, report
