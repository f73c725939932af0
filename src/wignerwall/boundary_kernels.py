"""Boundary kernels: Fourier transforms over the separation of hard-wall
indicator functions.

For a region R the indicator g(x, y) = [x - y/2 in R][x + y/2 in R] is
even in y, so its transform K(x, p) = (1/2pi) int e^{ipy} g(x, y) dy is
real and even in p. Convolving a free Wigner field along p against K
imposes the wall condition. Closed forms:

  half line x > 0:  g = rect(|y| < 2x),        K = sin(2 p x) / (pi p)
  interval (a, b):  g = rect(|y| < ell(x)),    K = sin(ell(x) p) / (pi p)
                    with ell(x) = 2 min(x - a, b - x)

both zero outside the region, with the removable p = 0 limit evaluated
directly (2x/pi and ell/pi). Wall samples use theta(0) = 0, so a row
exactly on a wall is zero.

The numeric path transforms sampled indicators. Quadrature is
cell-averaged: each sample stands for its dy-cell, contributing
dy * sinc(p dy / 2) * e^{i p y_k}. When jumps of g sit on cell
boundaries (half-integer sample offsets) this reproduces the continuum
transform of the underlying step function to machine precision, which
plain rectangle weights cannot do at finite p dy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np
import scipy.fft as sfft

from .errors import AsymmetricIndicator, BadInterval, EmptyInterior, RealnessViolation
from .phase_grid import PhaseGrid, WignerField, write_field_binary, write_field_csv
from .wigner_transform import fourier_over_separation

_EVEN_TOL = 1e-12
_NUMERIC_REALNESS_TOL = 1e-10


def _sinc_profile(halfwidth: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sin(halfwidth * p) / (pi p) rows with the p = 0 column at halfwidth/pi.

    halfwidth: [n_rows] of y-half-widths (zero rows stay zero);
    p: momentum arguments. Returns [n_rows, len(p)].
    """
    hw = np.asarray(halfwidth, dtype=np.float64)[:, None]
    pp = np.asarray(p, dtype=np.float64)[None, :]
    small = np.abs(pp) < 1e-300
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(small, hw / np.pi, np.sin(hw * pp) / (np.pi * pp))


@dataclass(frozen=True)
class BoundaryKernel:
    """Sampled kernel K(x, p) on a PhaseGrid plus its analytic row profile.

    ``values`` holds the grid-window samples. ``profile`` evaluates rows
    at arbitrary momentum arguments; the evolution engine uses it to
    sample the kernel on the momentum difference lattice, where the
    convolution needs arguments beyond the grid window.
    """

    grid: PhaseGrid
    values: np.ndarray = field(compare=False)
    provenance: str
    geometry: dict = field(compare=False)
    profile: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_x, self.grid.n_p):
            raise BadInterval("kernel values do not match the grid shape")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def rows_at(self, p_arguments: np.ndarray) -> np.ndarray:
        """Kernel rows sampled at the given momentum arguments."""
        return self.profile(np.asarray(p_arguments, dtype=np.float64))

    def inside_rows(self) -> np.ndarray:
        """Boolean mask of x rows strictly inside the allowed region."""
        return np.any(self.values != 0.0, axis=1)

    def tail_mass(self) -> np.ndarray:
        """1 - integral of each row over the grid momentum window.

        For rows well inside both the region and the window this is the
        sinc-tail truncation diagnostic; rows outside the region report 1.
        """
        return 1.0 - self.values.sum(axis=1) * self.grid.dp


def halfline_kernel(grid: PhaseGrid) -> BoundaryKernel:
    """Kernel of the impenetrable wall at the origin (region x > 0)."""
    x = grid.x_axis()
    hw = np.where(x > 0.0, 2.0 * x, 0.0)

    def profile(p_args: np.ndarray) -> np.ndarray:
        return _sinc_profile(hw, p_args)

    return BoundaryKernel(grid, profile(grid.p_axis()),
                          provenance="analytic-halfline",
                          geometry={"wall": 0.0},
                          profile=profile)


def interval_kernel(grid: PhaseGrid, a: float, b: float) -> BoundaryKernel:
    """Kernel of the box (a, b); half-width ell(x) = 2 min(x - a, b - x)."""
    if a >= b:
        raise BadInterval(f"need a < b, got a = {a!r}, b = {b!r}")
    if a < grid.x_min or b > grid.x_max:
        raise BadInterval("interval must lie inside the grid x range")
    x = grid.x_axis()
    inside = (x > a) & (x < b)
    hw = np.where(inside, 2.0 * np.minimum(x - a, b - x), 0.0)

    def profile(p_args: np.ndarray) -> np.ndarray:
        return _sinc_profile(hw, p_args)

    return BoundaryKernel(grid, profile(grid.p_axis()),
                          provenance="analytic-interval",
                          geometry={"a": a, "b": b},
                          profile=profile)


@dataclass(frozen=True)
class ShapeIndicator:
    """Sampled indicator g(x_vec, y_vec) of an n-D hard-wall billiard.

    Built from a level-set predicate: inside means B(x) < 1. The array g
    has shape (*n_x_axes, *n_y_axes) and holds
    [B(x - y/2) < 1] * [B(x + y/2) < 1], or its subcell-averaged
    refinement when anti-aliased sampling was requested. Symmetric under
    y -> -y by construction.
    """

    dimension: int
    x_axes: tuple[np.ndarray, ...]
    y_axes: tuple[np.ndarray, ...]
    g: np.ndarray = field(compare=False)


def _check_symmetric_axis(ax: np.ndarray) -> None:
    if ax.size % 2 != 1 or float(np.abs(ax + ax[::-1]).max()) > 1e-12 * max(1.0, float(np.abs(ax).max())):
        raise AsymmetricIndicator("y axes must be symmetric with odd length")


def billiard_indicator(B: Callable[..., np.ndarray],
                       x_axes: Sequence[np.ndarray],
                       y_axes: Sequence[np.ndarray],
                       subsamples: int = 1) -> ShapeIndicator:
    """Sample g over the product grid of x and y axes.

    ``B`` takes n coordinate arrays and returns the level set value;
    inside is strict B < 1. It is called once on the dense x grid, then
    per x point, subcell and sign on per-axis arrays that cover that
    point's y lattice: array d varies along axis d only, so ``B`` must
    broadcast them like a numpy ufunc (a result narrower than the
    lattice, from a B that ignores an axis, broadcasts too).
    ``subsamples`` > 1 averages the boolean over an s^n subcell lattice
    per y-cell, giving a real-valued anti-aliased indicator (needed by
    isotropy checks at tight tolerance); the default 1 keeps the plain
    boolean field.

    The x points are shared among ``scipy.fft.get_workers()`` threads
    (1 outside a ``set_workers`` scope). Each point's slice is filled by
    one task, so g does not depend on the worker count.

    Raises EmptyInterior when no x grid point lies inside.
    """
    n = len(x_axes)
    if len(y_axes) != n:
        raise AsymmetricIndicator("x and y need one axis per dimension")
    x_axes = tuple(np.asarray(ax, dtype=np.float64) for ax in x_axes)
    y_axes = tuple(np.asarray(ax, dtype=np.float64) for ax in y_axes)
    for ax in y_axes:
        _check_symmetric_axis(ax)

    inside_x = B(*np.meshgrid(*x_axes, indexing="ij")) < 1.0
    if not np.any(inside_x):
        raise EmptyInterior("no grid point lies inside the level set")

    shape_x = tuple(ax.size for ax in x_axes)
    shape_y = tuple(ax.size for ax in y_axes)
    out = np.zeros(shape_x + shape_y, dtype=np.float64)

    # y/2 per subcell shift, y axis d shaped to vary along axis d only
    dys = [float(ax[1] - ax[0]) for ax in y_axes]
    halves = [[(0.5 * (ax + d * dy)).reshape([-1 if j == k else 1 for j in range(n)])
               for k, (ax, d, dy) in enumerate(zip(y_axes, shift, dys))]
              for shift in _subcell_offsets(subsamples, n)]

    def fill(idx: tuple[int, ...]) -> None:
        x = [ax[i] for ax, i in zip(x_axes, idx)]
        acc = out[idx]
        for half in halves:
            acc += ((B(*[xd - hd for xd, hd in zip(x, half)]) < 1.0)
                    & (B(*[xd + hd for xd, hd in zip(x, half)]) < 1.0))

    points = list(np.ndindex(*shape_x))
    workers = min(sfft.get_workers(), len(points))
    if workers > 1:
        # imported here: concurrent.futures.thread is not loaded with the CLI
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, points))
    else:
        for idx in points:
            fill(idx)
    out /= subsamples ** n if subsamples > 1 else 1
    return ShapeIndicator(n, x_axes, y_axes, out)


def _subcell_offsets(s: int, n: int) -> list[tuple[float, ...]]:
    """Fractional subcell center offsets (units of dy), one tuple per subcell."""
    if s <= 1:
        return [(0.0,) * n]
    centers = (np.arange(s) + 0.5) / s - 0.5
    return [tuple(c) for c in product(centers, repeat=n)]


def kernel_from_indicator(s: ShapeIndicator,
                          p_axes: Sequence[np.ndarray]) -> np.ndarray:
    """Per-x Fourier transform of g over all y axes.

    Returns K with shape (*n_x_axes, *n_p_axes), real and even in p.
    One cell-averaged 1-D transform per dimension (the transform tensor
    factorizes even when g itself does not). The sums use the direct
    backend: Bluestein's leaves an imaginary residue near the realness
    tolerance on long y axes.
    """
    if len(p_axes) != s.dimension:
        raise AsymmetricIndicator("need one momentum axis per dimension")
    out = np.asarray(s.g, dtype=np.complex128)
    nx = s.dimension
    for d, ax in enumerate(s.y_axes):
        dy = float(ax[1] - ax[0])
        p = np.asarray(p_axes[d], dtype=np.float64)
        # each sample stands for its dy-cell, whose transform
        # (dy/2pi) sinc(p dy/2) is the sinc profile of half-width dy/2;
        # the separation sum already carries the dy/2pi
        cell = (2.0 * np.pi / dy) * _sinc_profile([0.5 * dy], p)[0]
        # y axis d sits at position nx + d (earlier ones already replaced by p)
        sums = fourier_over_separation(np.moveaxis(out, nx + d, -1), ax.size // 2,
                                       dy, p, backend="direct")
        out = np.moveaxis(sums * cell, -1, nx + d)
    residue = float(np.abs(out.imag).max())
    if residue >= _NUMERIC_REALNESS_TOL:
        raise RealnessViolation(f"imaginary residue {residue:g} in indicator transform")
    return out.real


def numeric_kernel(g_slice: np.ndarray, dy: float, p_axis: np.ndarray) -> np.ndarray:
    """Transform one sampled indicator slice over y to a kernel row over p.

    ``g_slice`` is a real (or boolean) vector of odd length sampled at
    y = k dy for k in [-K, K]; it must be even in y. The 1-D case of
    ``kernel_from_indicator``, with the same cell-averaged quadrature.

    Raises AsymmetricIndicator when evenness fails beyond 1e-12, and
    RealnessViolation if the residual imaginary part survives anyway.
    """
    g = np.asarray(g_slice, dtype=np.float64)
    if g.ndim != 1 or g.size % 2 != 1:
        raise AsymmetricIndicator("slice must be a 1-D vector of odd length")
    if float(np.abs(g - g[::-1]).max()) > _EVEN_TOL:
        raise AsymmetricIndicator("indicator slice is not even in y")
    K = g.size // 2
    s = ShapeIndicator(1, (np.zeros(1),), (dy * np.arange(-K, K + 1),), g[None, :])
    return kernel_from_indicator(s, [p_axis])[0]


def kernel_field_1d(s: ShapeIndicator, grid: PhaseGrid) -> BoundaryKernel:
    """Wrap a 1-D indicator transform as a BoundaryKernel on ``grid``.

    The indicator's x axis must equal the grid x axis; rows are evaluated
    at arbitrary momentum arguments through the stored g slices.
    """
    if s.dimension != 1:
        raise AsymmetricIndicator("kernel_field_1d needs a 1-D indicator")
    if s.x_axes[0].shape != (grid.n_x,) or \
            float(np.abs(s.x_axes[0] - grid.x_axis()).max()) > 1e-9 * max(1.0, grid.dx):
        raise BadInterval("indicator x axis differs from the grid x axis")

    def profile(p_args: np.ndarray) -> np.ndarray:
        return kernel_from_indicator(s, [p_args])

    return BoundaryKernel(grid, profile(grid.p_axis()),
                          provenance="numeric",
                          geometry={"dimension": 1},
                          profile=profile)


def write_kernel_csv(k: BoundaryKernel, path) -> None:
    """Field CSV with a metadata line carrying provenance and geometry."""
    meta = {"provenance": k.provenance, "geometry": k.geometry}
    write_field_csv(WignerField(k.grid, k.values), path, metadata=meta)


def write_kernel_binary(k: BoundaryKernel, path) -> None:
    meta = {"provenance": k.provenance, "geometry": k.geometry}
    write_field_binary(WignerField(k.grid, k.values), path, metadata=meta)
