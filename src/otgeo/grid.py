"""Discrete differential geometry on the periodic circle and flat torus.

The domain is either the 1-D circle of length ``L`` carrying a conformal
metric ``g(x) dx^2`` (so the Ricci tensor vanishes identically while every
covariant operator still sees ``g``), or the flat 2-D torus ``[0, L)^2``.
Space is discretized on a uniform periodic grid with ``n`` cells per axis,
time on ``Nt`` uniform intervals of a horizon ``T``.

Scalars live at the cells and vectors on the cell faces (Papadakis, Peyre
& Oudet 2014): component ``a`` of a vector field at index ``i`` sits on the
face between cells ``i`` and ``i + e_a``, with the metric
``g_f = (g_i + g_{i+1}) / 2`` and the volume ``h^dim sqrt(g_f)``.  The
gradient is the forward difference onto the faces, and the divergence is
its exact negative adjoint under the volume weights, which makes

    integrate(u * div_g(X)) == -integrate(metric_dot(grad u, X))

hold to machine precision and gives a symmetric Laplace-Beltrami operator
``div_g(grad u)`` whose only kernel is the constants.  ``cell_average``,
the adjoint of ``face_average``, brings face quantities to the cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

FIELD_FORMAT_VERSION = "ot-field v1"


@dataclass(frozen=True)
class Grid:
    """Periodic space-time grid with metric weights.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 (circle) or 2 (flat torus).
    n_space : int
        Points per spatial axis; spacing ``h = length / n_space``.
    n_time : int
        Number of time intervals; step ``tau = horizon / n_time``.
    horizon : float
        Time horizon ``T > 0``.
    length : float
        Side length of the periodic domain (default 1, so the flat
        domain has unit volume and entropy baselines are zero).
    metric : ndarray
        Conformal factor ``g`` per spatial cell.  Identically 1 for
        ``dim == 2``.
    face_metric, face_volume : ndarray
        ``g_f`` and ``h^dim sqrt(g_f)`` per face, shape
        ``space_shape + (dim,)``.
    """

    dim: int
    n_space: int
    n_time: int
    horizon: float
    length: float
    metric: np.ndarray
    sqrt_g: np.ndarray = field(repr=False, default=None)
    cell_volume: np.ndarray = field(repr=False, default=None)
    volume: float = field(default=None)
    face_metric: np.ndarray = field(repr=False, default=None)
    face_volume: np.ndarray = field(repr=False, default=None)

    # a grid is a value: equal parameters and metric bytes make equal grids
    def _key(self):
        return (self.dim, self.n_space, self.n_time, self.horizon, self.length,
                self.metric.tobytes())

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def h(self) -> float:
        return self.length / self.n_space

    @property
    def tau(self) -> float:
        return self.horizon / self.n_time

    @property
    def space_shape(self) -> tuple:
        return (self.n_space,) * self.dim

    @functools.cached_property
    def flat(self) -> bool:
        return bool(np.all(self.metric == 1.0))

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis (shared by both axes in 2-D)."""
        return np.arange(self.n_space) * self.h

    def time_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_time + 1)

    def time_weights(self) -> np.ndarray:
        """Trapezoid weights of the ``Nt + 1`` time nodes."""
        weights = np.full(self.n_time + 1, self.tau)
        weights[0] = weights[-1] = 0.5 * self.tau
        return weights

    def time_midpoints(self) -> np.ndarray:
        return (np.arange(self.n_time) + 0.5) * self.tau


def build_grid(dim, n_space, n_time, horizon, metric_profile=None, length=1.0) -> Grid:
    """Construct a :class:`Grid`, caching sqrt(g) and the total volume.

    ``metric_profile`` may be ``None`` (flat), a callable ``x -> g(x)``
    sampled at the nodes, or an array of per-node values.  A conformal
    metric is only meaningful on the circle; for ``dim == 2`` it must be
    omitted or identically 1.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n_space < 4:
        raise ValueError(f"n_space must be >= 4, got {n_space}")
    if n_time < 2:
        raise ValueError(f"n_time must be >= 2, got {n_time}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not 0 < length < math.inf:
        raise ValueError(f"length must be finite and positive, got {length}")

    shape = (n_space,) * dim
    if metric_profile is None:
        g = np.ones(shape)
    elif callable(metric_profile):
        if dim != 1:
            raise ValueError("conformal metric profiles are 1-D only")
        g = np.asarray(metric_profile(np.arange(n_space) * (length / n_space)), dtype=float)
    else:
        g = np.asarray(metric_profile, dtype=float)
    if g.shape != shape:
        raise ValueError(f"metric shape {g.shape} does not match grid shape {shape}")
    if dim == 2 and not np.all(g == 1.0):
        raise ValueError("dim == 2 supports only the flat metric g == 1")
    bad = np.argwhere(~(g > 0))
    if bad.size:
        node = tuple(int(i) for i in bad[0])
        raise ValueError(f"metric must be positive everywhere; g{node} = {g[tuple(bad[0])]}")

    sqrt_g = np.sqrt(g)
    cellv = sqrt_g * (length / n_space) ** dim
    # face a of cell i lies between cells i and i + e_a
    face_g = np.stack([0.5 * (g + np.roll(g, -1, axis)) for axis in range(dim)], axis=-1)
    grid = Grid(dim, n_space, n_time, float(horizon), float(length), g,
                sqrt_g=sqrt_g, cell_volume=cellv, volume=float(np.sum(cellv)),
                face_metric=face_g, face_volume=np.sqrt(face_g) * (length / n_space) ** dim)
    return grid


def covariant_gradient(field, grid: Grid, out=None) -> np.ndarray:
    """Covariant gradient with raised index on the faces: component ``a`` is
    ``(u[i + e_a] - u[i]) / (h g_f)``.

    Accepts any array whose trailing axes match the spatial shape (extra
    leading axes, e.g. time, pass through).  Returns an array with one
    extra trailing axis of length ``dim`` holding the face components.
    ``out``, here and in the other stencils, receives the result; a caller
    that passes it has built it and the input for the grid, unchecked then.
    """
    out = _face_pairs(np.subtract, field, grid, out)
    out /= grid.h if grid.flat else grid.h * grid.face_metric
    return out


def divergence_g(vector_field, grid: Grid, out=None) -> np.ndarray:
    """Metric divergence ``div_g X = (1/sqrt g) sum_k (sqrt g X^k)_{x_k}``:
    the flux ``face_volume X`` out of each cell through its faces, per cell
    volume.  It is the exact negative adjoint of :func:`covariant_gradient`
    under the volume weights (discrete Stokes holds exactly).
    """
    out = _flux_sum(np.subtract, vector_field, grid, out)
    out /= grid.h if grid.flat else grid.h * grid.cell_volume
    return out


def face_average(field, grid: Grid, out=None) -> np.ndarray:
    """Average of a cell scalar over the two cells of each face,
    ``(f[i] + f[i + e_a]) / 2``, with the face axis trailing."""
    out = _face_pairs(np.add, field, grid, out)
    out *= 0.5
    return out


def cell_average(face_field, grid: Grid, out=None) -> np.ndarray:
    """Volume-weighted average of a face scalar over each cell's two faces
    per axis, summed over the axes:
    ``sum_a (fv P[i - e_a] + fv P[i]) / (2 cv[i])``.  It is the adjoint of
    :func:`face_average` under the face and cell volumes, so
    ``integrate(cell_average(P))`` is the face sum ``sum fv P``."""
    out = _flux_sum(np.add, face_field, grid, out)
    out /= 2.0 if grid.flat else 2.0 * grid.cell_volume
    return out


def _pairs(ufunc, f, axis, out, forward):
    """``ufunc(f[i + 1], f[i])`` along a periodic ``axis`` into ``out[i]``
    (``forward``) or ``out[i + 1]``: one call on the arrays flattened and
    shifted by one step of ``axis``, then one that overwrites the pairs it
    got wrong, those across the wrap.  ``out`` must flatten to a view."""
    k = math.prod(f.shape[axis + 1:])
    src, dst = f.reshape(-1), out.reshape(-1)
    ufunc(src[k:], src[:-k], out=dst[:-k] if forward else dst[k:])
    lead = (slice(None),) * axis
    ufunc(f[lead + (0, ...)], f[lead + (-1, ...)], out=out[lead + (-1 if forward else 0, ...)])
    return out


def _face_pairs(ufunc, field, grid: Grid, out):
    """``ufunc(f[i + e_a], f[i])`` of a cell field per face, face axis trailing."""
    if out is None:
        field = np.asarray(field, dtype=float)
        _check_spatial(field, grid)
        out = np.empty(field.shape + (grid.dim,))
    for a in range(grid.dim):
        _pairs(ufunc, field, field.ndim - grid.dim + a, out[..., a], forward=True)
    return out


def _flux_sum(ufunc, face_field, grid: Grid, out):
    """``sum_a ufunc(F[i], F[i - e_a])`` of the flux ``F = fv P`` of a face
    field; on flat grids, where every face and cell volume is ``h^dim``,
    the flux is taken per unit volume, ``F = P``."""
    if out is None:
        face_field = np.asarray(face_field, dtype=float)
        if face_field.shape[-1] != grid.dim:
            raise ValueError(f"face field needs a trailing axis of length {grid.dim}")
        _check_spatial(face_field[..., 0], grid)
        out = np.empty(face_field.shape[:-1])
    for a in range(grid.dim):
        flux = face_field[..., a] if grid.flat else face_field[..., a] * grid.face_volume[..., a]
        term = _pairs(ufunc, flux, flux.ndim - grid.dim + a, np.empty_like(out) if a else out, False)
        if a:
            out += term
    return out


def laplace_beltrami(field, grid: Grid) -> np.ndarray:
    """Laplace-Beltrami operator, the composition ``div_g(grad u)``."""
    return divergence_g(covariant_gradient(field, grid), grid)


def integrate(field, grid: Grid):
    """Volume-weighted quadrature ``sum f sqrt(g) h^dim`` over the trailing
    spatial axes: a float for one slice, one value per leading index (a
    time node, say) otherwise.

    numpy's pairwise summation keeps the result independent of any
    internal evaluation order, and each slice of a path sums exactly as
    it does alone.
    """
    field = np.asarray(field, dtype=float)
    _check_spatial(field, grid)
    total = np.sum(field * grid.cell_volume, axis=tuple(range(-grid.dim, 0)))
    return float(total) if field.ndim == grid.dim else total


def metric_dot(X, Y, grid: Grid) -> np.ndarray:
    """Metric inner product ``g_f X Y`` of two face vector fields, taken
    per face and brought to the cells by :func:`cell_average`."""
    return cell_average(grid.face_metric * np.asarray(X, dtype=float) * Y, grid)


def metric_norm_sq(X, grid: Grid) -> np.ndarray:
    """``|X|_g^2`` per cell: :func:`metric_dot` of ``X`` with itself."""
    return metric_dot(X, X, grid)


def _check_spatial(arr, grid: Grid):
    if arr.shape[-grid.dim:] != grid.space_shape:
        raise ValueError(
            f"trailing axes {arr.shape[-grid.dim:]} do not match grid shape {grid.space_shape}")


# ---------------------------------------------------------------------------
# ot-field v1 file format
# ---------------------------------------------------------------------------

def write_field(path, values, grid: Grid):
    """Write a space-time scalar field in the ``ot-field v1`` text format.

    Header line ``ot-field v1 dim=<d> n=<n_space> nt=<n_time>`` followed by
    whitespace-separated doubles in row-major (t, x[, y]) order, one time
    slice per line.  Vector fields are stored componentwise, one file per
    component.
    """
    values = np.asarray(values, dtype=float)
    _check_spatial(values, grid)
    nslices = values.reshape((-1,) + grid.space_shape).shape[0]
    flat = values.reshape(nslices, -1)
    with open(path, "w") as fh:
        fh.write(f"{FIELD_FORMAT_VERSION} dim={grid.dim} n={grid.n_space} nt={grid.n_time}\n")
        for row in flat:
            fh.write(" ".join(map(repr, row.tolist())))
            fh.write("\n")


def read_field(path, grid: Grid = None):
    """Read an ``ot-field v1`` file; returns ``(values, dim, n, nt)``.

    If ``grid`` is given, the header must match it and the values are
    reshaped to ``(slices,) + grid.space_shape``.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] != FIELD_FORMAT_VERSION.split():
            raise ValueError(f"{path}: not an {FIELD_FORMAT_VERSION} file")
        meta = dict(kv.split("=") for kv in header[2:])
        missing = sorted({"dim", "n", "nt"} - meta.keys())
        if missing:
            raise ValueError(f"{path}: the header has no {missing[0]}=")
        dim, n, nt = int(meta["dim"]), int(meta["n"]), int(meta["nt"])
        data = np.array(fh.read().split(), dtype=float)
    if grid is not None and (dim, n, nt) != (grid.dim, grid.n_space, grid.n_time):
        raise ValueError(
            f"{path}: header (dim={dim}, n={n}, nt={nt}) does not match grid "
            f"(dim={grid.dim}, n={grid.n_space}, nt={grid.n_time})")
    if data.size == 0:
        raise ValueError(f"{path}: the file holds no slice")
    if data.size % n ** dim:
        raise ValueError(f"{path}: {data.size} values is not a whole number of slices")
    return data.reshape(-1, *((n,) * dim)), dim, n, nt
