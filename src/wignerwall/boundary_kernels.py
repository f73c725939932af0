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
exactly on a wall is zero. Every 1-D kernel row is stored as the jumps
of its rects, sum_j w_j sin(b_j p) / (pi p); the closed forms have one.

The numeric path transforms sampled indicators. Quadrature is
cell-averaged: each sample stands for its dy-cell, contributing
dy * sinc(p dy / 2) * e^{i p y_k}. When jumps of g sit on cell
boundaries (half-integer sample offsets) this reproduces the continuum
transform of the underlying step function to machine precision, which
plain rectangle weights cannot do at finite p dy. In 1-D that sum, by
parts, is the jumps b_j = (j + 1/2) dy with w_j = g_j - g_{j+1}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import AsymmetricIndicator, BadInterval, BadSampling, EmptyInterior, RealnessViolation
from .phase_grid import PhaseGrid, WignerField, row_blocks, write_field_binary, write_field_csv
from .wigner_transform import REALNESS_TOL

_EVEN_TOL = 1e-12


def _sinc_rows(jumps: np.ndarray, weights: np.ndarray, p: np.ndarray) -> np.ndarray:
    """[n_rows, len(p)] rows sum_j w_j sin(b_j p) / (pi p), sum_j w_j b_j / pi
    at p = 0, from [n_rows, J] jumps b_j and weights w_j (zero padded).
    Rows with no nonzero weight are +0.0 and are not evaluated; the others
    are evaluated per ``row_blocks`` block, so the temporaries stay
    block-sized."""
    pp = np.asarray(p, dtype=np.float64)[None, :]
    out = np.zeros((weights.shape[0], pp.size))
    live = np.flatnonzero(np.any(weights != 0.0, axis=1))
    for block in row_blocks(live.size):
        rows = live[block]
        b, w = jumps[rows], weights[rows]
        acc = sum(w[:, j, None] * np.sin(b[:, j, None] * pp) for j in range(w.shape[1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            out[rows] = np.where(np.abs(pp) < 1e-300, (w * b).sum(axis=1)[:, None] / np.pi,
                                 acc / (np.pi * pp))
    return out


@dataclass(frozen=True)
class BoundaryKernel:
    """Kernel K(x, p) on a PhaseGrid, row i stored as the [n_x, J] jumps and
    weights of ``_sinc_rows``. ``values`` holds the grid-window samples;
    ``rows_at`` evaluates rows at arbitrary momentum arguments, which the
    evolution engine needs beyond the grid window.
    """

    grid: PhaseGrid
    jumps: np.ndarray = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)
    provenance: str
    geometry: dict = field(compare=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        jumps = np.array(self.jumps, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        if weights.ndim != 2 or jumps.shape != weights.shape or len(weights) != self.grid.n_x:
            raise BadInterval("kernel jumps and weights need one zero-padded row per grid x")
        values = _sinc_rows(jumps, weights, self.grid.p_axis())
        for name, a in (("jumps", jumps), ("weights", weights), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def rows_at(self, p_arguments: np.ndarray) -> np.ndarray:
        """Kernel rows sampled at the given momentum arguments."""
        return _sinc_rows(self.jumps, self.weights, p_arguments)

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
    inside = x > 0.0
    return BoundaryKernel(grid, np.where(inside, 2.0 * x, 0.0)[:, None], inside[:, None],
                          provenance="analytic-halfline",
                          geometry={"wall": 0.0})


def interval_kernel(grid: PhaseGrid, a: float, b: float) -> BoundaryKernel:
    """Kernel of the box (a, b); half-width ell(x) = 2 min(x - a, b - x).

    Convolved with a sheared odd-image-train field whose correlation is
    capped (``evolve_bounded`` on the CLI's 3.5 L cap, L = b - a), the box
    field holds only up to a horizon, and it is not p0 t / m <= L. With
    L = 10 the l2_rel against the eigenmode oracle passes 1e-2 once
    t (|p0| + 3 sigma_p) / m passes about 22-24.4, sigma_p = 1/(2 sigma):
    it is 3.4e-2 for the box-traversal packet (p0 = 4, sigma = 0.6) at
    t = 3.75 and 3.2e-2 for a p0 = 1 packet at t = 7.5, inside its first
    traversal.
    """
    if a >= b:
        raise BadInterval(f"need a < b, got a = {a!r}, b = {b!r}")
    if a < grid.x_min or b > grid.x_max:
        raise BadInterval("interval must lie inside the grid x range")
    x = grid.x_axis()
    inside = (x > a) & (x < b)
    hw = np.where(inside, 2.0 * np.minimum(x - a, b - x), 0.0)
    return BoundaryKernel(grid, hw[:, None], inside[:, None],
                          provenance="analytic-interval",
                          geometry={"a": a, "b": b})


@dataclass(frozen=True)
class ShapeIndicator:
    """Sampled indicator g(x_vec, y_vec) of an n-D hard-wall billiard.

    Built from a level-set predicate: inside means B(x) < 1. The array g
    has shape (*n_x_axes, *n_y_axes) and holds
    [B(x - y/2) < 1] * [B(x + y/2) < 1], or its subcell-averaged
    refinement when anti-aliased sampling was requested. Symmetric under
    y -> -y bit for bit: ``billiard_indicator`` mirrors its y_1 >= 0 half,
    sampled on the y axes made exactly odd, 0.5 (y - y[::-1]), which moves
    each sample by at most half the 1e-12 asymmetry that the y axes may
    have; ``y_axes`` holds the axes as given.
    """

    dimension: int
    x_axes: tuple[np.ndarray, ...]
    y_axes: tuple[np.ndarray, ...]
    g: np.ndarray = field(compare=False)


def _y_step(ax: np.ndarray) -> float:
    """Step of a y axis: odd length >= 3, symmetric about 0, increasing
    in steps uneven by at most 1e-9 of the first."""
    ax = np.asarray(ax, dtype=np.float64)
    if ax.size % 2 != 1 or ax.size < 3 or \
            not float(np.abs(ax + ax[::-1]).max()) <= 1e-12 * max(1.0, float(np.abs(ax).max())):
        raise AsymmetricIndicator("y axes must be symmetric with odd length >= 3")
    steps = np.diff(ax)
    if not (steps[0] > 0.0 and float(np.abs(steps - steps[0]).max()) <= 1e-9 * steps[0]):
        raise BadSampling("y axes must increase in uniform steps")
    return float(steps[0])


def billiard_indicator(B: Callable[..., np.ndarray],
                       x_axes: Sequence[np.ndarray],
                       y_axes: Sequence[np.ndarray],
                       subsamples: int = 1) -> ShapeIndicator:
    """Sample g over the product grid of x and y axes.

    ``B`` takes n coordinate arrays and returns the level set value;
    inside is strict B < 1. It is called once on the dense x grid, then,
    per x point and subcell, at x - y/2 and at x + y/2 on per-axis arrays
    that cover the y_1 >= 0 half of the point's y lattice: array d varies
    along axis d only, so ``B`` must broadcast them like a numpy ufunc (a
    result narrower than the lattice, from a B that ignores an axis,
    broadcasts too). The y_1 < 0 half is the y_1 > 0 half reversed in
    every y axis, so g is even in y bit for bit. On the y axes made
    exactly odd, where the lattice is taken, that is the sampled sum bit
    for bit when the subcell centres are exact negatives of each other
    (s = 1-4, 8, 16 and 32 among s <= 64).
    ``subsamples`` s > 1 averages the boolean over an s^n subcell lattice
    per y-cell, giving a real-valued anti-aliased indicator (needed by
    isotropy checks at tight tolerance); at the default 1, g is still
    float64 (hits / s^n), holding only the values 0.0 and 1.0.

    Each x point is one task, on min(os.cpu_count() or 1, points)
    threads; it counts its subcell hits in a small unsigned integer
    array, so g depends on neither the order nor the thread count.

    Raises EmptyInterior when no x grid point lies inside, and BadSampling
    unless ``subsamples`` is an integer >= 1.
    """
    n = len(x_axes)
    if len(y_axes) != n:
        raise AsymmetricIndicator("x and y need one axis per dimension")
    if not (isinstance(subsamples, (int, np.integer)) and subsamples >= 1):
        raise BadSampling(f"subsamples must be an integer >= 1, got {subsamples!r}")
    x_axes = tuple(np.asarray(ax, dtype=np.float64) for ax in x_axes)
    y_axes = tuple(np.asarray(ax, dtype=np.float64) for ax in y_axes)
    dys = [_y_step(ax) for ax in y_axes]

    inside_x = B(*np.meshgrid(*x_axes, indexing="ij")) < 1.0
    if not np.any(inside_x):
        raise EmptyInterior("no grid point lies inside the level set")

    # y/2 per subcell shift on the odd y axes, y_1 >= 0 only, y axis d
    # shaped to vary along axis d only
    odd = [0.5 * (ax - ax[::-1]) for ax in y_axes]
    odd[0] = odd[0][odd[0].size // 2:]
    centres = (np.arange(subsamples) + 0.5) / subsamples - 0.5
    halves = [[(0.5 * (ax + d * dy)).reshape([-1 if j == k else 1 for j in range(n)])
               for k, (ax, d, dy) in enumerate(zip(odd, shift, dys))]
              for shift in product(centres, repeat=n)]
    dtype = np.min_scalar_type(len(halves))

    def count(idx: tuple[int, ...]) -> np.ndarray:
        x = [ax[i] for ax, i in zip(x_axes, idx)]
        acc = np.zeros(tuple(ax.size for ax in odd), dtype=dtype)
        for half in halves:
            acc += ((B(*[xd - hd for xd, hd in zip(x, half)]) < 1.0)
                    & (B(*[xd + hd for xd, hd in zip(x, half)]) < 1.0))
        return np.concatenate([np.flip(acc[1:]), acc])

    hits = np.empty(tuple(ax.size for ax in x_axes + y_axes), dtype=dtype)
    points = list(np.ndindex(*hits.shape[:n]))
    # imported here: concurrent.futures.thread is not loaded with the CLI
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(os.cpu_count() or 1, len(points))) as pool:
        for idx, acc in zip(points, pool.map(count, points)):
            hits[idx] = acc
    return ShapeIndicator(n, x_axes, y_axes, hits / subsamples ** n)


def kernel_from_indicator(s: ShapeIndicator,
                          p_axes: Sequence[np.ndarray]) -> np.ndarray:
    """Per-x Fourier transform of g over all y axes.

    Returns K with shape (*n_x_axes, *n_p_axes), real and even in p.
    One cell-averaged 1-D transform per dimension (the transform tensor
    factorizes even when g itself does not). The sums are the direct
    exponential sums of ``fourier_over_separation``'s "direct" backend,
    with each axis's phase matrix formed once: Bluestein's algorithm
    leaves an imaginary residue near the realness tolerance on long y
    axes.

    The x points are transformed one at a time into the real output, so
    the working set is one point's complex slice, not a complex copy of
    all of g. Each point's products are the matrices the whole array
    stacks, so the bits do not change. A 1-D indicator is transformed
    whole: there a point's slice is a single row, which numpy multiplies
    through a matrix-vector routine with other bits.
    """
    if len(p_axes) != s.dimension:
        raise AsymmetricIndicator("need one momentum axis per dimension")
    nx = s.dimension
    axes = []
    for ax, p in zip(s.y_axes, p_axes):
        dy = _y_step(ax)
        p = np.asarray(p, dtype=np.float64)
        # each sample stands for its dy-cell, whose transform
        # (dy/2pi) sinc(p dy/2) is the sinc row of one jump at dy/2;
        # the separation sum's scale already carries the dy/2pi
        cell = (2.0 * np.pi / dy) * _sinc_rows(np.array([[0.5 * dy]]), np.ones((1, 1)), p)[0]
        K = ax.size // 2
        phases = np.exp(1j * np.outer(dy * np.arange(-K, K + 1), p))
        axes.append((dy / (2.0 * np.pi), phases, cell))
    shape_x = s.g.shape[:nx]
    out = np.empty(shape_x + tuple(cell.size for _, _, cell in axes))
    residues = []
    for idx in np.ndindex(*shape_x) if nx > 1 else [(slice(None),)]:
        k = np.asarray(s.g[idx], dtype=np.complex128)
        lead = k.ndim - nx
        for d, (scale, phases, cell) in enumerate(axes):
            # y axis d sits at position lead + d (earlier ones already replaced by p)
            sums = scale * (np.moveaxis(k, lead + d, -1) @ phases)
            k = np.moveaxis(sums * cell, -1, lead + d)
        residues.append(np.abs(k.imag).max())
        out[idx] = k.real
    residue = float(np.max(residues))
    if not residue < REALNESS_TOL:
        raise RealnessViolation(f"imaginary residue {residue:g} in indicator transform")
    return out


def _slice_jumps(g: np.ndarray, dy: float) -> tuple[np.ndarray, np.ndarray]:
    """Jumps b_j = (j + 1/2) dy and weights w_j = g_j - g_{j+1} (g_{K+1} = 0)
    of each row of g, an even slice on y = k dy, k in [-K, K]: its
    cell-averaged transform summed by parts. Each row keeps its nonzero
    weights in order, zero padded to the longest row's count."""
    if not 0.0 < dy < np.inf:
        raise BadSampling(f"y step must be finite and positive, got {dy!r}")
    if not np.all(np.isfinite(g)):
        raise BadSampling("indicator slice holds a non-finite sample")
    if float(np.abs(g - g[:, ::-1]).max()) > _EVEN_TOL:
        raise AsymmetricIndicator("indicator slice is not even in y")
    w = -np.diff(g[:, g.shape[1] // 2:], axis=1, append=0.0)
    nonzero = w != 0.0
    j = np.argsort(~nonzero, axis=1, kind="stable")[:, :nonzero.sum(axis=1).max()]
    w = np.take_along_axis(w, j, axis=1)
    return np.where(w != 0.0, (j + 0.5) * dy, 0.0), w


def numeric_kernel(g_slice: np.ndarray, dy: float, p_axis: np.ndarray) -> np.ndarray:
    """Transform one sampled indicator slice over y to a kernel row over p.

    ``g_slice`` is a real (or boolean) vector of odd length sampled at
    y = k dy for k in [-K, K]; it must be even in y. Summed at its jumps,
    it is the 1-D ``kernel_from_indicator``'s cell-averaged quadrature.

    Raises AsymmetricIndicator when evenness fails beyond 1e-12, and
    BadSampling for a non-finite sample or a dy not finite and positive.
    """
    g = np.asarray(g_slice, dtype=np.float64)
    if g.ndim != 1 or g.size % 2 != 1:
        raise AsymmetricIndicator("slice must be a 1-D vector of odd length")
    return _sinc_rows(*_slice_jumps(g[None, :], dy), p_axis)[0]


def kernel_field_1d(s: ShapeIndicator, grid: PhaseGrid) -> BoundaryKernel:
    """Wrap a 1-D indicator, whose x axis must equal the grid x axis, as a
    BoundaryKernel on ``grid`` that stores each row's jumps."""
    if s.dimension != 1:
        raise AsymmetricIndicator("kernel_field_1d needs a 1-D indicator")
    if s.x_axes[0].shape != (grid.n_x,) or \
            float(np.abs(s.x_axes[0] - grid.x_axis()).max()) > 1e-9 * max(1.0, grid.dx):
        raise BadInterval("indicator x axis differs from the grid x axis")
    jumps, weights = _slice_jumps(np.asarray(s.g, dtype=np.float64), _y_step(s.y_axes[0]))
    return BoundaryKernel(grid, jumps, weights, provenance="numeric",
                          geometry={"dimension": 1})


def write_kernel_csv(k: BoundaryKernel, path) -> None:
    """Field CSV with a metadata line carrying provenance and geometry."""
    meta = {"provenance": k.provenance, "geometry": k.geometry}
    write_field_csv(WignerField(k.grid, k.values), path, metadata=meta)


def write_kernel_binary(k: BoundaryKernel, path) -> None:
    meta = {"provenance": k.provenance, "geometry": k.geometry}
    write_field_binary(WignerField(k.grid, k.values), path, metadata=meta)
