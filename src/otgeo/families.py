"""Marginal families used by experiments and diagnostics.

Each family produces a pair of unit-mass grid densities.  Both solvers
take any nonnegative pair of unit mass, the paper's L1 data, so the
families need not be positive: ``point_like`` loads one cell per marginal,
optionally regularized by a few steps of the grid's Laplace-Beltrami heat
flow, on every grid.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, integrate, read_field
from .oracles import heat_semigroup


def _periodic_bump(grid: Grid, center, width):
    """Strictly positive bump of unit mass (von Mises profile)."""
    x = grid.axis_coords()
    kappa = 1.0 / (2.0 * np.pi * width) ** 2
    if grid.dim == 1:
        q = np.exp(kappa * (np.cos(2.0 * np.pi * (x - center) / grid.length) - 1.0))
    else:
        cx, cy = center
        q = np.exp(kappa * (np.cos(2.0 * np.pi * (x[:, None] - cx) / grid.length) - 1.0)
                   + kappa * (np.cos(2.0 * np.pi * (x[None, :] - cy) / grid.length) - 1.0))
    return q / integrate(q, grid)


def _uniform(grid: Grid, params):
    m = np.full(grid.space_shape, 1.0 / grid.volume)
    return m, m.copy()


def _bump_pair(grid: Grid, params):
    width = params.get("width", 0.08)
    peak = params.get("peak")
    if peak is not None:
        width = 1.0 / (np.sqrt(2.0 * np.pi) * peak)
    floor = params.get("floor", 0.0)
    if grid.dim == 1:
        centers = params.get("centers", (0.0, 0.5))
    else:
        centers = params.get("centers", ((0.0, 0.0), (0.5, 0.5)))
    out = []
    for c in centers:
        q = _periodic_bump(grid, c, width) + floor
        out.append(q / integrate(q, grid))
    return out[0], out[1]


def _step(grid: Grid, params):
    width = params.get("width", 0.3)
    floor = params.get("floor", 0.05)
    centers = params.get("centers", (0.0, 0.5)) if grid.dim == 1 else \
        params.get("centers", ((0.0, 0.0), (0.5, 0.5)))
    x = grid.axis_coords()
    out = []
    for c in centers:
        if grid.dim == 1:
            d = np.abs((x - c + 0.5 * grid.length) % grid.length - 0.5 * grid.length)
            q = floor + (d <= 0.5 * width).astype(float)
        else:
            cx, cy = c
            dx = np.abs((x - cx + 0.5 * grid.length) % grid.length - 0.5 * grid.length)
            dy = np.abs((x - cy + 0.5 * grid.length) % grid.length - 0.5 * grid.length)
            q = floor + ((dx[:, None] <= 0.5 * width) & (dy[None, :] <= 0.5 * width)).astype(float)
        out.append(q / integrate(q, grid))
    return out[0], out[1]


def _point_like(grid: Grid, params):
    steps = int(params.get("smoothing_steps", 0))
    cells = params.get("cells", (0, grid.n_space // 2)) if grid.dim == 1 else \
        params.get("cells", ((0, 0), (grid.n_space // 2, grid.n_space // 2)))
    out = []
    for cell in cells:
        m = np.zeros(grid.space_shape)
        idx = (cell,) if grid.dim == 1 and np.isscalar(cell) else tuple(np.atleast_1d(cell))
        m[idx] = 1.0
        m /= integrate(m, grid)
        if steps > 0:
            m = heat_semigroup(m, steps * grid.h ** 2, grid)
            # the flow is positive up to rounding; the floor keeps a
            # rounding-size undershoot from leaving a negative cell
            m = np.maximum(m, 1e-12 * np.max(m))
            m /= integrate(m, grid)
        out.append(m)
    return out[0], out[1]


def _from_files(grid: Grid, params):
    out = []
    for key in ("file0", "file1"):
        values, _, _, _ = read_field(params[key], grid)
        m = values[0]
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{params[key]}: non-finite density")
        if np.any(m < 0):
            raise ValueError(f"{params[key]}: negative density")
        mass = integrate(m, grid)
        if mass <= 0:
            raise ValueError(f"{params[key]}: zero mass")
        out.append(m / mass)
    return out[0], out[1]


FAMILIES = {
    "uniform": _uniform,
    "bump_pair": _bump_pair,
    "step": _step,
    "point_like": _point_like,
    "file": _from_files,
}


def make_marginals(family, params, grid: Grid):
    """Build a marginal pair ``(m0, m1)`` for the named family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown marginal family {family!r}; "
                         f"known: {sorted(FAMILIES)}")
    return FAMILIES[family](grid, params or {})
