"""Reference implementations, the checks of ``otgeo.prox``'s fast paths.

``prox_root`` solves the mixed cell, kinetic and entropy energy together,
by safeguarded Newton; ``solve_prox`` never meets that cell, and its two
closed forms, ``_kinetic_prox`` and ``_entropy_prox``, are the two
special cases the tests compare with it.

``weighted_projection`` composes the splitting's projection from three
space-time solves, a coupling solve, a weighted Poisson solve and a second
coupling solve, each by its own cached factors (``spacetime_kernel``);
``otgeo.prox._weighted_projection`` inverts the same normal equations in
one pass and is compared with it.  ``apply_operator`` applies the
space-time operators by their stencils, and ``anderson_fixed_point`` is
the acceleration loop that allocates its work arrays per step, against
which ``otgeo.prox.anderson_fixed_point`` must reproduce every iterate.

``admm_projections`` runs the splitting as over-relaxed ADMM on the state
``(interior m, w, lambda)`` under a plain loop; without acceleration the
Douglas-Rachford map of ``otgeo.prox.solve_prox``, after ADMM's half step,
makes the same projections.
"""

import functools

import numpy as np

from otgeo.grid import cell_average, covariant_gradient, face_average, laplace_beltrami
from otgeo.prox import (
    ANDERSON_MEMORY,
    RELAXATION,
    ProxConfig,
    ProxError,
    _along_space,
    _axis_grid,
    _eigh,
    _end_coupling,
    _entropy_prox,
    _kinetic_prox,
    _mode_work,
    _pair_average,
    _pseudo_inverse,
    _space_eigenbasis,
    _symmetrized,
    _time_modes,
    _weighted_projection,
    project_continuity,
)
from otgeo.transport import DensityPath, MomentumField, continuity_defect


def prox_root(a, bsq, sigma, eps, V, tol=1e-12, max_iter=500):
    """Vectorized root of the prox optimality condition.

    Solves, per cell, f(m) = (m - a)/sigma + eps (log m + V + 1)
    - bsq / (2 (m + sigma)^2) = 0 over m > 0, by safeguarded Newton with
    bisection fallback on a bracket that provably contains the root (f is
    strictly increasing).  For eps == 0 the boundary minimum m = 0 is
    detected from the sign of f(0+); for eps > 0 a root below the smallest
    normal float is returned as 0, as ``otgeo.prox._entropy_prox`` underflows.  Raises
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
    m = float(prox_root(np.asarray(float(a)), bsq, sigma, eps_cell, float(V_cell), tol=tol))
    w = m * b / (m + sigma)
    return m, w


@functools.lru_cache(maxsize=16)
def spacetime_kernel(grid, kind):
    """The factors ``(basis, spatial)`` of one space-time solve, cached per
    grid and read-only; ``solve`` applies them.

    ``kind`` ``"coupling"`` is ``K = I + T (x) S`` on the interior nodes:
    ``I + t_j S`` per time mode ``j``.  ``"weighted"`` is the weighted
    Poisson operator ``lam_j (I + t_j S)^{-1} + L`` per time mode of the
    midpoints.  Here ``lam_j`` is ``_time_modes``'s eigenvalue,
    ``t_j = 1 - tau^2 lam_j / 4`` that of ``T = [1/4, 1/2, 1/4]``,
    ``L = -div_g grad`` and ``S = A_x* A_x``.  On flat grids
    ``spatial = (Q, inv)``, the spatial eigenbasis and the pseudo-inverse
    symbol; on the conformal circle one dense pseudo-inverse block per mode.
    """
    basis, lam = _time_modes(grid, interior=kind == "coupling")
    t = 1.0 - 0.25 * grid.tau ** 2 * lam
    if grid.flat:
        mu, Q = _space_eigenbasis(grid)
        axis = grid if grid.dim == 1 else _axis_grid(grid)
        s = np.einsum("ij,ij->j", Q, _symmetrized(lambda f: _pair_average(f, axis), axis) @ Q)
        if grid.dim == 2:
            s = s[:, None] + s[None, :]
        lam, t = (v.reshape((-1,) + (1,) * grid.dim) for v in (lam, t))
        op = 1.0 + t * s if kind == "coupling" else lam / (1.0 + t * s) + mu
        return basis, (Q, _pseudo_inverse(op))
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
    return basis, np.array(blocks)


def solve(rhs, kind, grid):
    """Apply the pseudo-inverse of a ``spacetime_kernel`` to ``rhs``."""
    basis, spatial = spacetime_kernel(grid, kind)
    hat = (basis @ rhs.reshape(len(basis), -1)).reshape(rhs.shape)
    if grid.flat:
        Q, inv = spatial
        hat = _along_space(_along_space(hat, Q, grid.dim) * inv, Q.T, grid.dim)
    else:
        hat = np.matmul(spatial, hat[..., None])[..., 0]
    return (basis.T @ hat.reshape(len(basis), -1)).reshape(rhs.shape)


def weighted_poisson(rhs, grid):
    """Solve ``(D K^{-1} D^T - Lap_g) phi = rhs`` on the midpoints, the
    weighted counterpart of ``otgeo.prox.spacetime_poisson``."""
    return solve(np.asarray(rhs, dtype=float), "weighted", grid)


def apply_operator(phi, grid, weighted):
    """Forward application of the space-time operator by its stencils: the
    time block is ``D K^{-1} D^T`` for the node difference ``D`` onto the
    midpoints and, when ``weighted``, the coupling ``K`` (else the identity)."""
    psi = (phi[:-1] - phi[1:]) / grid.tau
    if weighted:
        psi = solve(psi, "coupling", grid)
    out = -laplace_beltrami(phi, grid)
    out[:-1] += psi / grid.tau
    out[1:] -= psi / grid.tau
    return out


def weighted_projection(qa, qb, qc, m0, m1, grid, end_coupling):
    """``otgeo.prox._weighted_projection`` by three solves: the normal
    equations ``K m_int = A*(qa - A m_ends) + qc`` (``end_coupling``), one
    weighted space-time solve for the multiplier ``phi`` of the continuity
    defect, and the correction ``m_int -= K^{-1} D^T phi``,
    ``w = qb - grad phi``.  Returns ``(m_full, w, phi)``."""
    qa_cells = cell_average(qa, grid)
    rhs_m = 0.5 * (qa_cells[:-1] + qa_cells[1:]) + qc
    rhs_m[0] -= end_coupling[0]
    rhs_m[-1] -= end_coupling[1]
    m_new = np.empty((grid.n_time + 1,) + grid.space_shape)
    m_new[0] = m0
    m_new[-1] = m1
    m_new[1:-1] = solve(rhs_m, "coupling", grid)
    r = continuity_defect(DensityPath(m_new, grid), MomentumField(qb, grid))
    phi = weighted_poisson(r, grid)
    m_new[1:-1] -= solve((phi[:-1] - phi[1:]) / grid.tau, "coupling", grid)
    return m_new, qb - covariant_gradient(phi, grid), phi


def anderson_fixed_point(apply, x, max_evaluations):
    """Safeguarded type-II Anderson acceleration as
    ``otgeo.prox.anderson_fixed_point`` specifies it, with fresh arrays for
    every residual, difference and ridge.  The products ``d_g[:count] @ g``
    are kept: a new residual ``g + d_g[slot]`` adds each row's Gram entry
    with ``d_g[slot]``, and the new row takes one dot."""
    memory = ANDERSON_MEMORY
    d_g = np.empty((memory, x.size))
    d_f = np.empty((memory, x.size))
    gram = np.zeros((memory, memory))
    g_dots = np.zeros(memory)
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
                                    g_dots[:count])
            trial = fx - gamma @ d_f[:count]
        f_trial, g_trial, g_trial_norm, stop = evaluate(trial)
        if extrapolated and g_trial_norm > g_norm and not stop and evaluations < max_evaluations:
            count = slot = 0
            f_trial, g_trial, g_trial_norm, stop = evaluate(fx)
        d_g[slot] = g_trial - g
        d_f[slot] = f_trial - fx
        count = min(count + 1, memory)
        gram[slot, :count] = gram[:count, slot] = d_g[:count] @ d_g[slot]
        g_dots[:count] = g_dots[:count] + gram[:count, slot]
        g_dots[slot] = d_g[slot] @ g_trial
        slot = (slot + 1) % memory
        fx, g, g_norm = f_trial, g_trial, g_trial_norm
    return evaluations, stop


def admm_projections(m0, m1, reference, eps, grid, maps):
    """The projections ``(m, w, phi)``, copied, of ``maps`` evaluations of the
    ADMM map of ``(interior m, w, lambda)`` under a plain loop, from the
    projected interpolation of the marginals and a zero multiplier.

    With ``L z = (A m, w, interior m)`` each map takes the prox
    ``y = prox(L z + lambda / r)``, projects the relaxed point
    ``h = alpha y + (1 - alpha) L z`` less ``lambda / r`` and ascends
    ``lambda += r (L z' - h)`` at the projected image ``L z'``, with
    ``ProxConfig``'s default penalty ``r``.
    """
    Nt, r = grid.n_time, ProxConfig().penalty
    frac = (np.arange(Nt + 1) / Nt).reshape((-1,) + (1,) * grid.dim)
    start = project_continuity(DensityPath((1.0 - frac) * m0 + frac * m1, grid),
                               MomentumField(np.zeros((Nt,) + grid.space_shape + (grid.dim,)),
                                             grid), m0, m1, grid)
    m, w = start[0].values.copy(), start[1].values.copy()
    lam = np.zeros(2 * w.size + m[1:-1].size)
    sigma = 1.0 / r
    work = _mode_work(grid, coupled=True)
    end_coupling = _end_coupling(m0, m1, grid)
    n_w = w.size

    def image(density, momentum):
        a = face_average(0.5 * (density[:-1] + density[1:]), grid)
        return np.concatenate((a.ravel(), momentum.ravel(), density[1:-1].ravel()))

    def blocks(v):
        return (v[:n_w].reshape(w.shape), v[n_w:2 * n_w].reshape(w.shape),
                v[2 * n_w:].reshape(m[1:-1].shape))

    projections = []
    for _ in range(maps):
        lz = image(m, w)
        pa, pb, pc = blocks(lz + lam / r)
        ya = _kinetic_prox(pa, grid.face_metric * pb * pb, sigma)
        yb = ya / (ya + sigma) * pb
        yc = _entropy_prox(pc, sigma, eps, reference.potential_V)
        y = np.concatenate((ya.ravel(), yb.ravel(), yc.ravel()))
        relaxed = RELAXATION * y + (1.0 - RELAXATION) * lz
        m_new, w_new, phi = _weighted_projection(*blocks(relaxed - lam / r), m0, m1, grid,
                                                 end_coupling, work)
        m, w = m_new.copy(), w_new.copy()
        projections.append((m, w, phi.copy()))
        lam = lam + r * (image(m, w) - relaxed)
    return projections
