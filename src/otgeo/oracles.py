"""Ground-truth oracles, independent of the solvers they check.

* exact squared 2-Wasserstein distance of grid measures on the circle
  (monotone CDF matching at the optimal CDF offset, found by bisection),
  and of product pairs on the flat 2-D torus, where it is the sum of the
  two axis circle costs;
* a feasible-curve upper bound for the regularized action built from the
  grid's Laplace-Beltrami heat flow, on every grid, with a power-law time
  reparametrization, glued to the solver's own optimal middle segment;
* the McCann interpolant of the optimal coupling (on the torus the product
  of the axis interpolants), used as the reference midpoint in the
  vanishing-regularization sweep.

All of them run on numpy alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid, build_grid, covariant_gradient, integrate
from .transport import DensityPath, MomentumField, ReferenceMeasure, check_marginals, functional_value
from .prox import _along_space, _axis_grid, _pseudo_inverse, _space_eigenbasis


def _coupling_segments(cp, cq, xs, L, alpha):
    """Quantile segments of the circular coupling at CDF offset ``alpha``.

    The second measure's quantile function is extended periodically
    (``G^{-1}(t + 1) = G^{-1}(t) + L``) and shifted by ``alpha``; merging
    both sets of breakpoints inside the unit quantile interval yields
    segments on which both quantile functions are constant.  Returns
    ``(lengths, x, y)`` with ``y`` unwrapped to the line.
    """
    gshift = (cq + alpha) % 1.0
    events = np.unique(np.concatenate([[0.0, 1.0], cp[:-1], gshift]))
    events = events[(events >= 0.0) & (events <= 1.0)]
    lengths = np.diff(events)
    keep = lengths > 1e-15
    mids = 0.5 * (events[:-1] + events[1:])[keep]
    lengths = lengths[keep]
    # a cumulative sum can end just below 1; a quantile past it is the last atom's
    last = len(xs) - 1
    x = xs[np.minimum(np.searchsorted(cp, mids), last)]
    s = mids - alpha
    k = np.floor(s)
    y = xs[np.minimum(np.searchsorted(cq, s - k), last)] + k * L
    return lengths, x, y


def _shift_cost(cp, cq, xs, L, alpha):
    lengths, x, y = _coupling_segments(cp, cq, xs, L, alpha)
    return float(np.sum(lengths * (x - y) ** 2))


def _shift_slope(cp, cq, alpha):
    """Right-hand slope of the shift cost at ``alpha``, in units of ``h^2``.

    Atom boundary ``j`` of the second measure sits at quantile level
    ``t_j = cq[j] + alpha - k_j`` of the first, ``k_j = floor(cq[j] + alpha)``.
    Raising ``alpha`` moves the mass at ``t_j`` from the unwrapped node
    ``y_j = j - k_j n`` to ``y_j + 1``, so with ``x_j`` the node of the first
    measure at ``t_j`` the slope is ``sum_j (x_j - y_j)^2 - (x_j - y_j - 1)^2
    = sum_j 2 (x_j - y_j) - 1``: an integer, its sign exact.  Atoms sit at
    the nodes ``i L / n``; ``x_j`` is clamped as in ``_coupling_segments``.
    """
    n = len(cp)
    s = cq + alpha
    k = np.floor(s)
    x = np.minimum(np.searchsorted(cp, s - k), n - 1)
    return int(np.sum(2.0 * (x - np.arange(n) + k * n) - 1.0))


def _optimal_shift(p, q, xs, L):
    """Smallest minimizer of the quantile cost over the circular CDF offset.

    The cost is convex and linear between breakpoints, the offsets where
    quantile levels of the two measures align (Delon, Salomon & Sobolevski
    2010), so bisection finds the first breakpoint with nonnegative
    right-hand slope.  No optimal coupling moves mass farther than ``L/2``,
    so ``|mean(q) - mean(p) - alpha L| <= L/2`` puts every minimizer in
    ``(-3/2, 3/2)``: the search covers the breakpoints of ``[-2, 2)``.
    """
    cp = np.cumsum(p)
    cq = np.cumsum(q)
    base = np.unique((cp[:, None] - cq[None, :]).ravel() % 1.0)
    breaks = np.concatenate([base - 2.0, base - 1.0, base, base + 1.0, base[:1] + 2.0])
    lo, hi = 0, len(breaks) - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _shift_slope(cp, cq, 0.5 * (breaks[mid] + breaks[mid + 1])) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return breaks[lo], _shift_cost(cp, cq, xs, L, breaks[lo]), cp, cq


# a 2-D marginal counts as a product when no cell departs from the outer
# product of its axis marginals by more than this fraction of its peak; the
# products of the families depart by at most 3.5e-15 up to 128^2
PRODUCT_ROUNDING = 1e-13


def _axis_pairs(m0, m1, grid: Grid):
    """The pair ``(m0, m1)`` of the flat torus as pairs on one axis circle.

    Returns ``(axis, pairs)``: on the circle the grid and the pair itself; on
    the 2-D torus the axis grid (``prox._axis_grid``) and the pairs of row
    and of column marginals, once each marginal is the outer product of
    them to ``PRODUCT_ROUNDING`` of its peak.  ``ValueError`` on a curved
    grid and on a 2-D pair that is not a product.
    """
    if not grid.flat:
        raise ValueError("the W2 oracles need the flat metric")
    m0, m1 = check_marginals(m0, m1, grid)
    if grid.dim == 1:
        return grid, [(m0, m1)]
    rows, cols = [], []
    for name, m in (("m0", m0), ("m1", m1)):
        row, col = m.sum(axis=1) * grid.h, m.sum(axis=0) * grid.h
        defect = np.max(np.abs(m - np.multiply.outer(row, col) / integrate(m, grid)))
        if defect > PRODUCT_ROUNDING * np.max(m):
            raise ValueError(f"{name} is not a product of its axis marginals (it departs "
                             f"from one by {defect / np.max(m):.2e} of its peak), so the "
                             "2-D W2 oracles do not apply")
        rows.append(row)
        cols.append(col)
    return _axis_grid(grid), [tuple(rows), tuple(cols)]


def circular_w2_oracle(m0, m1, grid: Grid) -> float:
    """Exact squared 2-Wasserstein distance of two grid measures on the circle.

    The circle problem reduces to a one-parameter family of flat-line
    quantile costs indexed by the cut (equivalently the CDF offset), whose
    minimum, at a quantile breakpoint, is the exact optimum of the grid
    measure (atoms of mass ``m_i h`` at the nodes).  On ties, as for
    antipodal pairs, the smallest optimal offset is taken: the distance does
    not depend on it, the coupling (``mccann_midpoint``) does.  Flat 1-D
    grids only.
    """
    if grid.dim != 1 or not grid.flat:
        raise ValueError("circular_w2_oracle needs the flat 1-D circle")
    return _circle_w2(*check_marginals(m0, m1, grid), grid)


def _circle_w2(m0, m1, grid: Grid) -> float:
    """:func:`circular_w2_oracle` on marginals already checked."""
    p, q = (m * grid.cell_volume for m in (m0, m1))
    p = p / p.sum()
    q = q / q.sum()
    xs = np.arange(grid.n_space) * grid.h
    _, best, _, _ = _optimal_shift(p, q, xs, grid.length)
    return float(best)


def flow_w2_oracle(m0, m1, grid: Grid) -> float:
    """Exact squared 2-Wasserstein distance of a product pair on the flat torus.

    The periodic squared distance on ``T^2 = S^1 x S^1`` is the sum of the
    two axis distances, so any coupling costs at least the sum of the
    circle costs of its axis marginals, and the product of the two optimal
    circle couplings attains it: W2^2 is the sum of the circle oracle over
    the axis pairs (:func:`_axis_pairs`, which rejects a pair that is not a
    product).  On the circle it is :func:`circular_w2_oracle`.
    """
    axis, pairs = _axis_pairs(m0, m1, grid)
    return sum(_circle_w2(a, b, axis) for a, b in pairs)


def mccann_midpoint(m0, m1, grid: Grid, t=0.5) -> np.ndarray:
    """Displacement interpolant at time t of the optimal coupling of
    :func:`flow_w2_oracle`: on the 2-D torus the outer product of the two
    axis interpolants.

    On the circle it pairs quantiles at the optimal CDF offset, moves each
    mass atom the fraction ``t`` of its (unwrapped) displacement, and
    deposits it back on the grid with linear splitting between the two
    nearest nodes.  Returns a grid density of unit mass.
    """
    axis, pairs = _axis_pairs(m0, m1, grid)
    return functools.reduce(np.multiply.outer,
                            [_circle_midpoint(a, b, axis, t) for a, b in pairs])


def _circle_midpoint(m0, m1, grid: Grid, t):
    p, q = (m * grid.cell_volume for m in (m0, m1))
    p, q = p / p.sum(), q / q.sum()
    n, h, L = grid.n_space, grid.h, grid.length
    xs = np.arange(n) * h
    alpha, _, cp, cq = _optimal_shift(p, q, xs, L)
    lengths, x, y = _coupling_segments(cp, cq, xs, L, alpha)
    out = np.zeros(n)
    pos = ((1.0 - t) * x + t * y) % L
    idx = pos / h
    lo = np.floor(idx).astype(int) % n
    frac = idx - np.floor(idx)
    np.add.at(out, lo, lengths * (1.0 - frac))
    np.add.at(out, (lo + 1) % n, lengths * frac)
    return out / (out.sum() * h)


# ---------------------------------------------------------------------------
# Heat flow machinery
# ---------------------------------------------------------------------------

def _spectral(field, symbol, grid: Grid):
    """A function of ``-Lap_g`` applied along the trailing spatial axes of
    ``field``, given by its ``symbol`` on the eigenvalues of
    ``prox._space_eigenbasis``, whose basis diagonalizes
    ``omega^{1/2} (-Lap_g) omega^{-1/2}``, ``omega = sqrt(g)``; leading axes
    of the field and the symbol broadcast."""
    _, Q = _space_eigenbasis(grid)
    wroot = np.sqrt(grid.sqrt_g)
    hat = _along_space(np.asarray(field, dtype=float) * wroot, (Q,) * grid.dim) * symbol
    return _along_space(hat, (Q.T,) * grid.dim) / wroot


def heat_semigroup(m, t, grid: Grid) -> np.ndarray:
    """The grid's Laplace-Beltrami heat flow ``exp(t Lap_g) m``, in closed
    form in the spatial eigenbasis: mass-conserving and, as ``Lap_g`` has
    nonnegative off-diagonal entries, positivity-preserving to rounding.

    ``t`` is one time or an array of times, giving one slice per time;
    a time ``<= 0`` gives ``m`` back.
    """
    m = np.asarray(m, dtype=float)
    t = np.reshape(t, np.shape(t) + (1,) * grid.dim)
    mu, _ = _space_eigenbasis(grid)
    mu = np.where(_pseudo_inverse(mu) > 0, mu, 0.0)  # the constants' 0, not its rounding
    return np.where(t > 0, _spectral(m, np.exp(-np.maximum(t, 0.0) * mu), grid), m)


def momentum_from_density_steps(m_path, grid: Grid):
    """Face momentum making the staggered continuity equation hold per interval.

    Solves the discrete flux problem ``div_g w[k] = (m[k+1] - m[k]) / tau``
    in gradient form (``w = grad phi``) through the pseudo-inverse of the
    Laplace-Beltrami operator in the spatial eigenbasis that the primal
    projection caches.  Its only kernel is the constants, so every
    increment of zero mass is reached exactly.
    """
    m_path = np.asarray(m_path, dtype=float)
    mu, _ = _space_eigenbasis(grid)
    phi = _spectral((m_path[1:] - m_path[:-1]) / grid.tau, -_pseudo_inverse(mu), grid)
    return covariant_gradient(phi, grid)


def heat_bound_window(n_time, beta=2.0):
    """The input rules of :func:`heat_competitor_bound`; its window nodes."""
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    k0, k1 = int(round(n_time / 3)), int(round(2 * n_time / 3))
    if not 0 < k0 < k1 < n_time:
        raise ValueError(f"window nodes ({k0}, {k1}) need 0 < k0 < k1 < n_time = {n_time}")
    return k0, k1


def heat_competitor_bound(m0, m1, reference: ReferenceMeasure, eps, grid: Grid, beta=2.0):
    """Feasible-curve upper bound for the minimal regularized action.

    Both marginals are evolved by the grid's heat flow
    (:func:`heat_semigroup`) under the reparametrization ``t -> t**beta``
    (beta > 1 keeps the kinetic action of the boundary layers integrable
    even for very rough data); over the middle window
    ``[T/3, 2T/3]``, rounded to time nodes, the two smoothed measures are
    joined by the primal solver's own optimal curve.  Evaluating the
    discrete functional on the glued curve bounds the minimum from above.

    Returns ``(bound, parts)`` with the leg costs in ``parts``.
    """
    k0, k1 = heat_bound_window(grid.n_time, beta)
    # looked up per call, so that a wrapper of prox.solve_prox sees this solve
    from .prox import solve_prox

    T, Nt, t_nodes = grid.horizon, grid.n_time, grid.time_nodes()

    m_path = np.empty((Nt + 1,) + grid.space_shape)
    m_path[:k0 + 1] = _positive_slice(heat_semigroup(m0, t_nodes[:k0 + 1] ** beta, grid), grid)
    m_path[k1:] = _positive_slice(heat_semigroup(m1, (T - t_nodes[k1:]) ** beta, grid), grid)

    mid_grid = build_grid(grid.dim, grid.n_space, k1 - k0, t_nodes[k1] - t_nodes[k0],
                          grid.metric, grid.length)
    mid_m, mid_w, _, _ = solve_prox(m_path[k0], m_path[k1], reference, eps, mid_grid)
    m_path[k0:k1 + 1] = mid_m.values

    w = np.zeros((Nt,) + grid.space_shape + (grid.dim,))
    w[:k0] = momentum_from_density_steps(m_path[:k0 + 1], grid)
    w[k1:] = momentum_from_density_steps(m_path[k1:], grid)
    w[k0:k1] = mid_w.values

    path = DensityPath(m_path, grid)
    mom = MomentumField(w, grid)
    bound = functional_value(path, mom, reference, eps)
    legs = {
        "k0": k0, "k1": k1,
        "middle_objective": functional_value(
            DensityPath(m_path[k0:k1 + 1], mid_grid), MomentumField(w[k0:k1], mid_grid),
            reference, eps),
    }
    return float(bound), legs


def _positive_slice(path, grid: Grid, floor=1e-13):
    """Raise each slice of a path to a small positive floor and restore its
    unit mass.  The heat flow is positive up to rounding; the floor guards
    that rounding and the empty cells of the data at time 0."""
    path = np.maximum(path, floor)
    return path / integrate(path, grid).reshape((-1,) + (1,) * grid.dim)
