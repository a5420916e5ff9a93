"""The regularized transport functional and its ingredients.

The cost of a curve of densities ``m(t)`` with momentum ``w = m v`` is the
Benamou-Brenier kinetic action plus ``eps`` times the time-integrated
relative entropy against a reference measure ``nu = exp(-V) dx``:

    F_eps(m, w) = sum_k  tau * sum_faces( face_volume * Psi_g(w[k], M[k]) )
                + eps * trapezoid_k( tau * H(m[k]; nu) )

on the staggered layout: densities at the ``Nt + 1`` time nodes, momenta at
the ``Nt`` interval midpoints and the cell faces (``grid``), and the face
density ``M[k]`` the average of ``m`` over the face's two cells and the
interval's two nodes.  The kernel ``Psi_g(p, m) = |p|_g^2 / (2m)`` is
jointly convex with the closure
``Psi(0, 0) = 0`` and ``+inf`` whenever ``m <= 0`` with ``p != 0``; the
infinite branch is reported as ``inf``, never a NaN, so solver line
searches stay deterministic.

This module is the one implementation of the discrete quantities both
solvers and the diagnostics share: ``F_eps`` itself, the entropy density
``m (log m + V)``, the invariant energy and its profile in time, the
continuity residual and its space-time norm, the closed-form discrete
dual ``G(phi)`` that bounds ``F_eps`` from below, the pair ``(m, w)`` that
attains it, and the node potential ``u`` that a multiplier ``phi`` carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    covariant_gradient,
    divergence_g,
    face_average,
    integrate,
    metric_norm_sq,
)

INFEASIBLE = np.inf
# Relative size of rounding in a sum such as F_eps or G: a change, or an
# F_eps - G, within ROUNDING (1 + |F_eps|) of zero is zero to both routes.
ROUNDING = 1e-14


@dataclass
class ReferenceMeasure:
    """Reference measure ``nu = exp(-V) dx`` on the spatial grid.

    ``log_normalizer`` is ``log integrate(exp(-V))`` under the grid
    quadrature, so the stationary density ``exp(-V)/Z`` has unit mass
    exactly in discrete terms.
    """

    potential_V: np.ndarray
    log_normalizer: float

    @classmethod
    def from_potential(cls, V, grid: Grid) -> "ReferenceMeasure":
        """``ValueError`` unless ``V`` and its log-normalizer are finite."""
        V = np.zeros(grid.space_shape) + np.asarray(V, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            log_z = float(np.log(integrate(np.exp(-V), grid)))
        if not (np.all(np.isfinite(V)) and np.isfinite(log_z)):
            raise ValueError(f"the potential V and its log-normalizer ({log_z}) must be finite")
        return cls(V, log_z)

    def stationary_density(self, grid: Grid) -> np.ndarray:
        return np.exp(-self.potential_V - self.log_normalizer)


@dataclass
class DensityPath:
    """Time-indexed probability densities, shape ``(Nt+1,) + space_shape``."""

    values: np.ndarray
    grid: Grid

    def validate(self):
        v = self.values
        if v.shape != (self.grid.n_time + 1,) + self.grid.space_shape:
            raise ValueError(f"density path has shape {v.shape}")
        if np.any(v < 0):
            raise ValueError("density path has negative entries")
        masses = integrate(v, self.grid)
        if np.max(np.abs(masses - 1.0)) > 1e-8:
            raise ValueError(f"density path masses deviate by {np.max(np.abs(masses - 1)):.3e}")
        return self

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.values[:-1] + self.values[1:])


@dataclass
class MomentumField:
    """Staggered momentum ``w = M v`` on the cell faces, shape
    ``(Nt,) + space_shape + (dim,)``."""

    values: np.ndarray
    grid: Grid

    def validate(self):
        expect = (self.grid.n_time,) + self.grid.space_shape + (self.grid.dim,)
        if self.values.shape != expect:
            raise ValueError(f"momentum field has shape {self.values.shape}, expected {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("momentum field has non-finite entries")
        return self


@dataclass
class Potential:
    """Space-time adjoint field at time nodes, shape ``(Nt+1,) + space_shape``."""

    values: np.ndarray
    grid: Grid

    def normalize(self, m1) -> "Potential":
        """Shift so the terminal trace pairs to zero against ``m1``."""
        return Potential(self.values - self.terminal_pairing(m1), self.grid)

    def terminal_pairing(self, m1) -> float:
        return integrate(self.values[-1] * m1, self.grid)

    def cross_pairing(self, m0, m1) -> float:
        """Duality pairing ``int u(0) m0 - int u(T) m1``."""
        return integrate(self.values[0] * m0, self.grid) - self.terminal_pairing(m1)


def check_marginals(m0, m1, grid: Grid):
    """The marginals as float arrays; ``ValueError`` unless each has the
    grid's shape, only finite cells, no negative cell and unit mass to 1e-8
    (L1 data)."""
    out = [np.asarray(m0, dtype=float), np.asarray(m1, dtype=float)]
    for name, marg in zip(("m0", "m1"), out):
        if marg.shape != grid.space_shape:
            raise ValueError(f"{name} shape {marg.shape} != {grid.space_shape}")
        if not np.all(np.isfinite(marg)):
            raise ValueError(f"{name} has a non-finite cell")
        if np.any(marg < 0):
            raise ValueError(f"{name} has a negative cell")
        if abs(integrate(marg, grid) - 1.0) > 1e-8:
            raise ValueError(f"{name} mass deviates from 1 by more than 1e-8")
    return out


def bb_kernel(p, m):
    """Benamou-Brenier kernel ``|p|^2 / (2m)`` with its convex closure.

    ``p`` is the metric length(s) squared already, or a vector whose
    Euclidean norm is the metric length; to keep the scalar contract
    simple, ``p`` here is the vector in an orthonormal frame (use
    ``sqrt(g) w`` on the conformal circle).  Returns ``inf`` on the
    infeasible branch (m == 0, p != 0); raises on ``m < 0``.
    """
    m = float(m)
    if m < 0:
        raise ValueError(f"bb_kernel needs m >= 0, got {m}")
    psq = float(np.dot(np.atleast_1d(p), np.atleast_1d(p)))
    if m == 0.0:
        return 0.0 if psq == 0.0 else INFEASIBLE
    return psq / (2.0 * m)


def entropy_density(m, V=0.0):
    """Pointwise ``m (log m + V)`` with ``0 log 0 = 0``, for ``m >= 0``.

    ``V`` broadcasts against ``m`` (a slice or a whole path).
    """
    pos = m > 0
    out = np.log(m, out=np.zeros_like(m), where=pos)
    out += V
    out *= m
    np.copyto(out, 0.0, where=~pos)                        # +0.0 in the empty cells
    return out


def relative_entropy(m, reference: ReferenceMeasure, grid: Grid):
    """Relative entropy ``H(m; nu) = integrate(m (log m + V))`` of a slice,
    or one value per slice of a path.

    Uses the convention ``0 log 0 = 0``; negative densities are a domain
    error.  For any probability density the value is bounded below by
    ``-log_normalizer`` (Jensen).
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("relative_entropy needs m >= 0")
    return integrate(entropy_density(m, reference.potential_V), grid)


def functional_value(m: DensityPath, w: MomentumField, reference: ReferenceMeasure,
                     eps: float) -> float:
    """Discrete value of ``F_eps``; ``inf`` on the infeasible kinetic branch.

    Kinetic action by the midpoint rule over the faces' staggered cells,
    entropy by the trapezoid rule over time nodes (endpoint entropies
    included, as they are in the continuum functional).  Negative
    densities are a domain error.
    """
    grid = m.grid
    if w.grid is not grid and w.grid != grid:
        raise ValueError("density and momentum live on different grids")
    if np.any(m.values < 0):
        raise ValueError("functional_value needs m >= 0")
    M = face_average(m.midpoints(), grid)
    wsq = grid.face_metric * w.values ** 2
    dead = M <= 0
    if np.any(dead & (wsq > 0)):
        return INFEASIBLE
    kin = np.divide(wsq, 2.0 * M, out=np.zeros_like(M), where=~dead)
    ent = entropy_density(m.values, reference.potential_V)
    weights = grid.time_weights().reshape((-1,) + (1,) * grid.dim)
    return (grid.tau * float(np.sum(kin * grid.face_volume))
            + eps * float(np.sum(weights * ent * grid.cell_volume)))


def energy_slice(m, u, reference: ReferenceMeasure, eps: float, grid: Grid):
    """Invariant energy ``E = 1/2 int m |grad u|^2 - eps H(m; nu)`` at one
    time, or one value per time of a path."""
    gu = covariant_gradient(u, grid)
    kinetic = 0.5 * integrate(np.asarray(m) * metric_norm_sq(gu, grid), grid)
    return kinetic - eps * relative_entropy(m, reference, grid)


def energy_profile(m: DensityPath, u: Potential, reference: ReferenceMeasure,
                   eps: float) -> np.ndarray:
    """:func:`energy_slice` at the interior time nodes ``t_1 .. t_{Nt-1}``."""
    return energy_slice(m.values[1:-1], u.values[1:-1], reference, eps, m.grid)


def energy_drift(energies) -> float:
    """Largest deviation of an energy profile from its mean; 0 when it is empty."""
    return float(np.max(np.abs(energies - np.mean(energies)))) if energies.size else 0.0


def spacetime_norm(field, grid: Grid) -> float:
    """Volume-weighted L2 norm of an interval-midpoint space-time field."""
    return float(np.sqrt(np.sum(field * field * grid.cell_volume) * grid.tau))


def continuity_defect(m: DensityPath, w: MomentumField) -> np.ndarray:
    """Residual field of the staggered continuity equation,
    ``r[k] = (m[k+1] - m[k]) / tau - div_g(w[k+1/2])`` per interval."""
    return (m.values[1:] - m.values[:-1]) / m.grid.tau - divergence_g(w.values, m.grid)


def continuity_residual(m: DensityPath, w: MomentumField):
    """:func:`continuity_defect` and its :func:`spacetime_norm`."""
    r = continuity_defect(m, w)
    return r, spacetime_norm(r, m.grid)


def _dual_minimizer(phi, reference: ReferenceMeasure, eps: float, grid: Grid):
    """Gradient of the multiplier, its squared metric length, and the interior
    density ``exp(s / eps - V - 1)`` that minimize the Lagrangian at ``phi``."""
    grad = covariant_gradient(phi, grid)
    gsq = metric_norm_sq(grad, grid)
    s = (phi[1:] - phi[:-1]) / grid.tau + 0.25 * (gsq[:-1] + gsq[1:])
    with np.errstate(over="ignore"):
        m_int = np.exp(s / eps - reference.potential_V - 1.0)
    return grad, gsq, m_int


def dual_value(phi, m0, m1, reference: ReferenceMeasure, eps: float, grid: Grid,
               minimizer=None) -> float:
    """Closed-form discrete dual ``G(phi)`` of ``F_eps`` under the continuity
    constraint, for a multiplier ``phi`` at the ``Nt`` interval midpoints.

    ``G`` is the minimum over ``(m, w)`` of the Lagrangian
    ``F_eps + tau sum_k integrate(phi[k] r[k])`` with ``r`` the
    :func:`continuity_defect` and the endpoints pinned to ``m0``, ``m1``; the
    minimizer is :func:`dual_pair`.  By weak duality
    ``G(phi) <= min F_eps <= F_eps(m, w)`` for every ``phi`` and every
    feasible pair, so ``F_eps - G`` certifies optimality.  ``G`` is concave,
    and its cell-volume-weighted gradient is ``tau`` times the continuity
    defect of :func:`dual_pair`.  ``minimizer``: ``_dual_minimizer`` at ``phi``, if at hand.
    """
    tau, cv, V = grid.tau, grid.cell_volume, reference.potential_V
    _, gsq, m_int = minimizer or _dual_minimizer(phi, reference, eps, grid)
    ends = phi[-1] * m1 - phi[0] * m0 - 0.25 * tau * (m0 * gsq[0] + m1 * gsq[-1])
    entropy = entropy_density(m0, V) + entropy_density(m1, V)
    return float(np.sum((ends + 0.5 * tau * eps * entropy) * cv)
                 - tau * eps * np.sum(m_int * cv))


def dual_pair(phi, m0, m1, reference: ReferenceMeasure, eps: float, grid: Grid, minimizer=None):
    """The pair ``(m, w)`` that minimizes the Lagrangian of :func:`dual_value`
    at the multiplier ``phi``: the endpoints are ``m0`` and ``m1``, the
    interior density is ``m[j] = exp(s[j] / eps - V - 1)`` with
    ``s[j] = (phi[j] - phi[j-1]) / tau + (|grad phi[j-1]|^2 + |grad phi[j]|^2) / 4``
    (``metric_norm_sq``), and the momentum is ``w[k] = -M[k] grad phi[k]``.
    """
    grad, _, m_int = minimizer or _dual_minimizer(phi, reference, eps, grid)
    m = np.concatenate([np.asarray(m0, float)[None], m_int, np.asarray(m1, float)[None]])
    path = DensityPath(m, grid)
    return path, MomentumField(-face_average(path.midpoints(), grid) * grad, grid)


def potential_from_multiplier(phi, m_full, reference: ReferenceMeasure, eps,
                              grid: Grid) -> Potential:
    """Assemble node-based u from the constraint multiplier.

    Interval values are u_mid = c(t) - phi.  The drift c rises by
    eps tau times the mass of the dual density ``m(phi)`` (the interior
    density of :func:`dual_pair`) at each interior node, from eps tau / 2
    on the first interval; that mass is 1 at the dual optimum, where
    c = eps t (the drift comes from the derivative of m log m).  With it
    the duality pairing carries the entropy term of :func:`dual_value`, so
    its defect is not of first order in the multiplier's error.  Interior
    nodes average the neighbors; the endpoint traces follow a half-step of
    the Hamilton-Jacobi equation evaluated with ``|grad phi|^2`` and the
    endpoint marginals, which makes the discrete duality identity exact at
    convergence.  The gauge is int u(T) m1 = 0.
    """
    _, vsq, m_int = _dual_minimizer(phi, reference, eps, grid)
    mass = integrate(m_int, grid)
    drift = eps * grid.tau * (0.5 + np.concatenate(([0.0], np.cumsum(mass))))
    V = reference.potential_V
    u_mid = drift.reshape((-1,) + (1,) * grid.dim) - phi
    u = np.empty((grid.n_time + 1,) + grid.space_shape)
    u[1:-1] = 0.5 * (u_mid[:-1] + u_mid[1:])
    with np.errstate(divide="ignore"):
        log_m0 = np.where(m_full[0] > 0, np.log(np.maximum(m_full[0], 1e-300)), -690.0)
        log_m1 = np.where(m_full[-1] > 0, np.log(np.maximum(m_full[-1], 1e-300)), -690.0)
    u[0] = u_mid[0] - 0.5 * grid.tau * (0.5 * vsq[0] - eps * (log_m0 + V))
    u[-1] = u_mid[-1] + 0.5 * grid.tau * (0.5 * vsq[-1] - eps * (log_m1 + V))
    return Potential(u, grid).normalize(m_full[-1])
