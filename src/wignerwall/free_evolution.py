"""Exact free propagation of Wigner fields by the phase-space shear.

Free dynamics obeys dW/dt = -(p/m) dW/dx, solved exactly by
W(x, p, t) = W(x - p t / m, p, 0): each momentum row translates along x
at its own velocity p/m. Rows of an edge-decayed field are shifted on
its half spectrum (exact for band-limited data), any other field's by a
cubic spline, which does not wrap. The spline is built here on NumPy, a
cubic B-spline prefilter and a four-tap gather with the semantics of
``scipy.ndimage.map_coordinates(order=3, mode="constant", cval=0.0)``;
it keeps that function's name, ``map_coordinates``, because the
benchmark tracer wraps it. No SciPy module is imported.

Also provides the naive bounded evolution: masking the initial field
with theta(x) and then shearing, which visibly violates the hard-wall
condition because the sheared support obeys x > p t / m rather than
x > 0. It exists for demonstration and contrast tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, guard
from .phase_grid import _RIM, WignerField, row_blocks

_FOURIER_SAFE_RATIO = 1e-6
_POLE = np.sqrt(3.0) - 2.0  # the cubic B-spline prefilter's pole


@dataclass(frozen=True)
class ShearParams:
    """Time and mass of the free shear; velocity field is v(p) = p/m.

    Negative t is allowed (time reversal).
    """

    t: float
    m: float

    def __post_init__(self):
        if self.m <= 0:
            raise ValidationError("mass must be positive")
        if not np.isfinite(self.t):
            raise ValidationError("time must be finite")


def _fourier_shift_rows(values: np.ndarray, shifts: np.ndarray, rows: slice = slice(None),
                        masses: list | None = None) -> np.ndarray:
    """Periodic band-limited samples of ``values`` at row ``i - shifts[j]``
    of column ``j``, shifts in rows as ``map_coordinates`` takes them, for
    the output ``rows``. Each ``row_blocks`` block of columns is shifted on
    its own half spectrum over the whole x line, so no spectrum-sized
    array or phase matrix is built. ``masses``, when given, gets each
    block's |.| sum and rim |.| sum over its whole columns, the rim being
    the rows and columns that ``WignerField.edge_mass`` counts."""
    n, n_p = values.shape
    freq = np.fft.rfftfreq(n)
    out = np.empty((len(range(n)[rows]), n_p))
    for cols in row_blocks(n_p):
        R = np.fft.rfft(values[:, cols], axis=0)
        R *= np.exp(-2j * np.pi * np.outer(freq, shifts[cols]))
        shifted = np.fft.irfft(R, n, axis=0)
        out[:, cols] = shifted[rows]
        if masses is not None:
            a, j = np.abs(shifted), np.arange(cols.start, cols.stop)
            inner = a[_RIM:-_RIM]
            rim = (a[:_RIM].sum() + a[-_RIM:].sum() + inner[:, j < _RIM].sum()
                   + inner[:, j >= n_p - _RIM].sum())
            masses.append((a.sum(), rim))
    return out


def _spline_coefficients(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # cubic B-spline coefficients along x with mirror boundaries, by the
    # causal and anticausal recursions of the pole z = sqrt(3) - 2 (Unser,
    # Aldroubi & Eden 1993), into ``out`` when given; the causal start sums
    # z^k over the mirror-extended column, the anticausal start is the
    # mirror's closed form; the powers of z underflow to zero past a few
    # hundred rows, as they should
    n = values.shape[0]
    c = np.multiply(values, 6.0, out=out)
    with np.errstate(under="ignore"):
        w = _POLE ** np.arange(n)
        w[1:n - 1] += _POLE ** np.arange(2 * n - 3, n - 1, -1)
        c[0] = (w / (1.0 - _POLE ** (2 * n - 2))) @ c
    for i in range(1, n):
        c[i] += _POLE * c[i - 1]
    c[-1] = (_POLE / (_POLE * _POLE - 1.0)) * (c[-1] + _POLE * c[-2])
    for i in range(n - 2, -1, -1):
        c[i] = (c[i] - c[i + 1]) * -_POLE  # keeps a zero field's zeros +0.0
    return c


def map_coordinates(values: np.ndarray, shifts: np.ndarray,
                    rows: slice = slice(None)) -> np.ndarray:
    """Cubic B-spline samples of ``values`` at row ``i - shifts[j]`` of each
    column ``j`` (shifts in rows), for the output ``rows``, as
    ``scipy.ndimage.map_coordinates`` with ``order=3, mode="constant",
    cval=0.0`` gives them: the spline takes mirror boundaries along x, so
    taps -1 and n_x inside the grid read the mirrored coefficients, and
    every point outside [0, n_x - 1] is +0.0.

    Each column moves by one shift, so its integer offset and its four
    weights are computed once and every output row is four gathered
    coefficient rows, gathered per ``row_blocks`` block of output rows so
    that the index and tap arrays stay block-sized. The name stays a
    module attribute that ``shear_evolve`` looks up at call time, because
    the benchmark tracer wraps ``free_evolution.map_coordinates`` and
    requires its span under ``shear_evolve``.
    """
    n, n_p = values.shape
    # rows -1 .. n + 1 of the mirror-extended coefficients (period 2n - 2)
    # in one array: the spline's rows at 1 .. n, then the three mirrored ends
    coef = np.empty((n + 3, n_p))
    _spline_coefficients(values, coef[1:n + 1])
    ends = np.array([0, n + 1, n + 2])
    coef[ends] = coef[1 + np.abs((ends + n - 2) % (2 * n - 2) - (n - 1))]
    coef = coef.ravel()
    # a column shifted by more than n + 1 rows is empty; the clip keeps
    # the integer offsets finite for any finite shift
    back = np.clip(-shifts, -n - 2.0, n + 2.0)
    start = np.floor(back)
    t = back - start
    start = start.astype(np.intp)
    t2, t3 = t * t, t * t * t
    weights = ((1.0 - t) ** 3 / 6.0, 2.0 / 3.0 - t2 + t3 / 2.0,
               (1.0 + 3.0 * (t + t2 - t3)) / 6.0, t3 / 6.0)
    base, last = start * n_p + np.arange(n_p), n - 1 - start - (t > 0.0)
    at = range(n)[rows]
    out = np.empty((len(at), n_p))
    for b in row_blocks(len(at)):
        # flat index of tap 0 (coefficient row floor(i - shift) - 1) of each
        # point; points off the grid read clipped indices and are zeroed last
        i = np.asarray(at[b])[:, None]
        flat, block = i * n_p + base, out[b]
        np.take(coef, flat, mode="clip", out=block)
        block *= weights[0]
        for k in (1, 2, 3):
            block += np.take(coef[k * n_p:], flat, mode="clip") * weights[k]
        np.copyto(block, 0.0, where=(i < -start) | (i > last))
    return out


def shear_evolve(w0: WignerField, s: ShearParams, check_support: bool = True,
                 rows: slice | None = None) -> WignerField | np.ndarray:
    """Translate momentum row j by +p_j t / m along x; out-of-grid fill 0.

    A field whose edge mass is at most 1e-6 of its absolute mass is
    shifted spectrally (``_fourier_shift_rows``), any other by the cubic
    spline (``map_coordinates``), which does not wrap. The field keeps its
    ``abs_mass`` and ``edge_mass``, so a plan's unchanging W0 is measured
    once, not on every frame. t = 0 returns a field on w0's own
    (immutable) values.

    ``rows``, a slice of consecutive x rows, asks for those rows alone:
    their values come back as a read-only array, not a field, since a
    one-row span is no grid. The spectral path still shifts whole
    columns, a block at a time, and sums the guard's masses over them as
    it goes (equal to the whole field's ``edge_mass`` and ``abs_mass``
    within a few ulps, not bit for bit); the cubic path gathers the
    requested rows only, unless the support guard needs the whole field.

    Raises SupportEscaped when the post-shear edge mass fails guard
    ``shear_edge_mass``, a fraction of the field's absolute mass (with
    check_support on; scenario builders for deliberately extended states
    switch it off).
    """
    grid, values = w0.grid, w0.values
    if s.t == 0.0:
        return WignerField(grid, values) if rows is None else values[rows]
    shifts = grid.p_axis() * (s.t / s.m) / grid.dx  # in rows

    fourier = w0.edge_mass <= _FOURIER_SAFE_RATIO * w0.abs_mass  # a zero field too
    if rows is None or (check_support and not fourier):
        shifted = (_fourier_shift_rows if fourier else map_coordinates)(values, shifts)
        shifted.flags.writeable = False  # a fresh array: the field keeps it
        result = WignerField(grid, shifted)
        if check_support:
            guard("shear_edge_mass", result.edge_mass, scale=result.abs_mass)
        return result if rows is None else shifted[rows]
    masses = [] if check_support else None
    shifted = (_fourier_shift_rows(values, shifts, rows, masses) if fourier
               else map_coordinates(values, shifts, rows))
    shifted.flags.writeable = False
    if check_support:
        total, rim = (math.fsum(m) * grid.dx * grid.dp for m in zip(*masses))
        guard("shear_edge_mass", rim, scale=total)
    return shifted


def naive_bounded_evolve(w0: WignerField, s: ShearParams) -> WignerField:
    """Shear, then multiply by the sheared wall step theta(x - p t / m).

    Reproduces the incorrect bounded solution: its support condition is
    x > p t / m, which admits x < 0 in rows with p < 0. Input must come
    from a state that vanishes for x <= 0.
    """
    grid = w0.grid
    guard("naive_wall_mass", wall_violation_mass(w0), scale=w0.abs_mass)
    sheared = shear_evolve(w0, s)
    mask = (grid.x_axis()[:, None] - grid.p_axis()[None, :] * (s.t / s.m)) > 0.0
    return WignerField(grid, sheared.values * mask)


def wall_violation_mass(w: WignerField) -> float:
    """|W| mass in the forbidden region x <= 0."""
    rows = w.grid.x_axis() <= 0.0
    return float(np.abs(w.values[rows, :]).sum() * w.grid.dx * w.grid.dp)
