"""Discrete differential geometry on the periodic circle and flat torus.

The domain is either the 1-D circle of length ``L`` carrying a conformal
metric ``g(x) dx^2`` (so the Ricci tensor vanishes identically while every
covariant operator still sees ``g``), or the flat 2-D torus ``[0, L)^2``.
Space is discretized on a uniform periodic grid with ``n`` points per axis,
time on ``Nt`` uniform intervals of a horizon ``T``.

All spatial derivatives are centered second-order differences.  The
divergence is defined as the exact negative adjoint of the covariant
gradient under the sqrt(g)-weighted inner product, which makes the discrete
integration-by-parts identity

    integrate(u * div_g(X)) == -integrate(<grad u, X>_g)

hold to machine precision and gives a symmetric Laplace-Beltrami operator
``div_g(grad u)``.  Those exact identities are what the energy and duality
diagnostics downstream rely on.
"""

from __future__ import annotations

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
        Conformal factor ``g`` per spatial node.  Identically 1 for
        ``dim == 2``.
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

    @property
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
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")

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
    grid = Grid(dim, n_space, n_time, float(horizon), float(length), g,
                sqrt_g=sqrt_g, cell_volume=cellv, volume=float(np.sum(cellv)))
    return grid


def _dc(a, axis, h):
    """Centered second-order periodic difference along ``axis``, by slicing:
    bitwise ``(np.roll(a, -1, axis) - np.roll(a, 1, axis)) / (2 h)``."""
    a = np.asarray(a)
    lead = (slice(None),) * (axis % a.ndim)
    out = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    np.subtract(a[lead + (slice(2, None),)], a[lead + (slice(None, -2),)],
                out=out[lead + (slice(1, -1),)])
    np.subtract(a[lead + (slice(1, 2),)], a[lead + (slice(-1, None),)],
                out=out[lead + (slice(0, 1),)])
    np.subtract(a[lead + (slice(0, 1),)], a[lead + (slice(-2, -1),)],
                out=out[lead + (slice(-1, None),)])
    out /= 2.0 * h
    return out


def centred_kernel(grid: Grid):
    """Spatial kernel of the centred difference and the nodes that fix it.

    Returns ``(modes, nodes)``: the null modes (constant plus, on even
    grids, the per-axis alternating modes) and the flat spatial indices of
    the nodes ``(0..1)^dim`` (node 0 on odd grids), where the modes' values
    form an invertible matrix, so pinning a field there removes its kernel
    component.
    """
    n = grid.n_space
    corner = [0, 1] if n % 2 == 0 else [0]
    modes = [np.ones(grid.space_shape)]
    if n % 2 == 0:
        alt = np.cos(np.pi * np.arange(n))
        if grid.dim == 1:
            modes.append(alt)
        else:
            modes.extend([np.tile(alt[:, None], (1, n)), np.tile(alt[None, :], (n, 1)),
                          alt[:, None] * alt[None, :]])
    if grid.dim == 2:
        corner = [i * n + j for i in corner for j in corner]
    return modes, corner


def covariant_gradient(field, grid: Grid) -> np.ndarray:
    """Covariant gradient with raised index: ``(grad u)^i = g^{ij} u_{x_j}``.

    Accepts any array whose trailing axes match the spatial shape (extra
    leading axes, e.g. time, pass through).  Returns an array with one
    extra trailing axis of length ``dim`` holding the vector components.
    """
    field = np.asarray(field, dtype=float)
    _check_spatial(field, grid)
    h = grid.h
    if grid.dim == 1:
        return (_dc(field, -1, h) / grid.metric)[..., None]
    return np.stack([_dc(field, -2, h), _dc(field, -1, h)], axis=-1)


def divergence_g(vector_field, grid: Grid) -> np.ndarray:
    """Metric divergence ``div_g X = (1/sqrt g) sum_k (sqrt g X^k)_{x_k}``.

    Discretized with the same centered stencil as the gradient, so it is
    the exact negative adjoint of :func:`covariant_gradient` under the
    sqrt(g)-weighted inner product (discrete Stokes holds exactly).
    """
    X = np.asarray(vector_field, dtype=float)
    if X.shape[-1] != grid.dim:
        raise ValueError(f"vector field needs a trailing axis of length {grid.dim}")
    _check_spatial(X[..., 0], grid)
    h = grid.h
    if grid.dim == 1:
        return _dc(grid.sqrt_g * X[..., 0], -1, h) / grid.sqrt_g
    return _dc(X[..., 0], -2, h) + _dc(X[..., 1], -1, h)


def laplace_beltrami(field, grid: Grid) -> np.ndarray:
    """Laplace-Beltrami operator, the composition ``div_g(grad u)``."""
    return divergence_g(covariant_gradient(field, grid), grid)


def integrate(field, grid: Grid) -> float:
    """Volume-weighted quadrature ``sum f sqrt(g) h^dim`` over one slice.

    numpy's pairwise summation keeps the result independent of any
    internal evaluation order.
    """
    field = np.asarray(field, dtype=float)
    _check_spatial(field, grid)
    if field.ndim != grid.dim:
        raise ValueError("integrate expects a single spatial slice")
    return float(np.sum(field * grid.cell_volume))


def metric_dot(X, Y, grid: Grid) -> np.ndarray:
    """Pointwise metric inner product of two vector fields: ``g_{ij} X^i Y^j``."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if grid.dim == 1:
        return grid.metric * X[..., 0] * Y[..., 0]
    return X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1]


def metric_norm_sq(X, grid: Grid) -> np.ndarray:
    """Pointwise ``|X|_g^2``."""
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
            fh.write(" ".join(repr(float(v)) for v in row))
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
        dim, n, nt = int(meta["dim"]), int(meta["n"]), int(meta["nt"])
        data = np.array(fh.read().split(), dtype=float)
    per_slice = n ** dim
    if data.size % per_slice:
        raise ValueError(f"{path}: {data.size} values is not a whole number of slices")
    values = data.reshape(-1, *((n,) * dim))
    if grid is not None:
        if (dim, n, nt) != (grid.dim, grid.n_space, grid.n_time):
            raise ValueError(
                f"{path}: header (dim={dim}, n={n}, nt={nt}) does not match grid "
                f"(dim={grid.dim}, n={grid.n_space}, nt={grid.n_time})")
    return values, dim, n, nt
