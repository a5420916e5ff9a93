"""Marginal families used by experiments and diagnostics.

Each family produces a pair of unit-mass grid densities.  Both solvers
take any nonnegative pair of unit mass, the paper's L1 data, so the
families need not be positive: ``point_like`` loads one cell per marginal,
optionally regularized by a few steps of the grid's Laplace-Beltrami heat
flow, on every grid (on the torus axis by axis, so the pair is a product).
A family rejects a parameter it does not read and one it cannot use (a
width that is not positive, centres or cells that are not two points of
the grid) with a ``ValueError`` that names the parameter.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid, integrate, read_field
from .oracles import heat_semigroup
from .prox import _axis_grid


def _positive(params, key, default, zero=False):
    """The family parameter ``key``; ``ValueError`` unless finite and positive (``zero``: >= 0)."""
    value = params.get(key, default)
    if not (0 <= value if zero else 0 < value) or not value < np.inf:
        raise ValueError(f"{key} must be finite and {'>= 0' if zero else 'positive'}, got {value!r}")
    return value


def _two_points(params, key, default, grid: Grid):
    """The family's two points ``key`` (``centers`` or ``cells``) as an array
    of shape ``(2,)`` on the circle or ``(2, 2)`` on the torus; ``ValueError``
    unless they are finite numbers, and for cells grid indices."""
    value = params.get(key, default)
    try:
        points = np.asarray(value)
    except ValueError:  # ragged nesting
        points = np.asarray(None)
    kinds = "i" if key == "cells" else "if"
    if points.shape != (2,) * grid.dim or points.dtype.kind not in kinds \
            or not np.all(np.isfinite(points)) \
            or (key == "cells" and not np.all((0 <= points) & (points < grid.n_space))):
        what = "cell indices in [0, n_space)" if key == "cells" else "finite numbers"
        raise ValueError(f"{key} must be two {'' if grid.dim == 1 else 'pairs of '}"
                         f"{what}, got {value!r}")
    return points


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


# the two bump or step centres when none are given, per grid dimension
_CENTERS = {1: (0.0, 0.5), 2: ((0.0, 0.0), (0.5, 0.5))}


def _uniform(grid: Grid, params):
    m = np.full(grid.space_shape, 1.0 / grid.volume)
    return m, m.copy()


def _bump_pair(grid: Grid, params):
    width = _positive(params, "width", 0.08)
    if params.get("peak") is not None:
        width = 1.0 / (np.sqrt(2.0 * np.pi) * _positive(params, "peak", None))
    floor = _positive(params, "floor", 0.0, zero=True)
    centers = _two_points(params, "centers", _CENTERS[grid.dim], grid)
    out = []
    for c in centers:
        q = _periodic_bump(grid, c, width) + floor
        out.append(q / integrate(q, grid))
    return out[0], out[1]


def _step(grid: Grid, params):
    width = _positive(params, "width", 0.3)
    floor = _positive(params, "floor", 0.05, zero=True)
    centers = _two_points(params, "centers", _CENTERS[grid.dim], grid)
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
    steps = params.get("smoothing_steps", 0)
    if not steps >= 0:
        raise ValueError(f"smoothing_steps must be >= 0, got {steps!r}")
    steps = int(steps)
    half = grid.n_space // 2
    cells = _two_points(params, "cells", (0, half) if grid.dim == 1 else ((0, 0), (half, half)),
                        grid)
    # on the torus each marginal is the outer product of its axis factors,
    # each smoothed and floored on the axis circle, so it stays a product
    axis = grid if grid.dim == 1 else _axis_grid(grid)
    out = []
    for cell in cells:
        factors = []
        for index in np.atleast_1d(cell):
            m = np.zeros(axis.space_shape)
            m[index] = 1.0
            m /= integrate(m, axis)
            if steps > 0:
                m = heat_semigroup(m, steps * axis.h ** 2, axis)
                # the flow is positive up to rounding; the floor keeps a
                # rounding-size undershoot from leaving a negative cell
                m = np.maximum(m, 1e-12 * np.max(m))
                m /= integrate(m, axis)
            factors.append(m)
        out.append(functools.reduce(np.multiply.outer, factors))
    return out[0], out[1]


def _from_files(grid: Grid, params):
    if not {"file0", "file1"} <= params.keys():
        raise ValueError(f"the file family needs file0 and file1, got {sorted(params)}")
    out = []
    for key in ("file0", "file1"):
        try:
            m = read_field(params[key], grid)[0][0]
        except OSError as err:
            raise ValueError(f"{key}: {err}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{params[key]}: non-finite density")
        if np.any(m < 0):
            raise ValueError(f"{params[key]}: negative density")
        mass = integrate(m, grid)
        if mass <= 0:
            raise ValueError(f"{params[key]}: zero mass")
        out.append(m / mass)
    return out[0], out[1]


# each family's builder and the parameters it reads
FAMILIES = {
    "uniform": (_uniform, ()),
    "bump_pair": (_bump_pair, ("width", "peak", "floor", "centers")),
    "step": (_step, ("width", "floor", "centers")),
    "point_like": (_point_like, ("smoothing_steps", "cells")),
    "file": (_from_files, ("file0", "file1")),
}


def make_marginals(family, params, grid: Grid):
    """Build a marginal pair ``(m0, m1)`` for the named family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown marginal family {family!r}; "
                         f"known: {sorted(FAMILIES)}")
    build, names = FAMILIES[family]
    params = params or {}
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r} of the {family} family; "
                         f"known: {list(names)}")
    return build(grid, params)
