"""Reference root of the pointwise prox, the check of ``otgeo.prox``'s closed forms.

``prox_root`` solves the mixed cell, kinetic and entropy energy together,
by safeguarded Newton; ``solve_prox`` never meets that cell, and its two
closed forms, ``_kinetic_prox`` and ``_entropy_prox``, are the two
special cases the tests compare with it.
"""

import numpy as np

from otgeo.prox import ProxError


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
