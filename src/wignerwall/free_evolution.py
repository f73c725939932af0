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

from dataclasses import dataclass

import numpy as np

from .errors import SupportEscaped, ValidationError
from .phase_grid import WignerField, row_blocks

EDGE_GUARD_RATIO = 1e-4
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


def _fourier_shift_rows(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Periodic band-limited samples of ``values`` at row ``i - shifts[j]``
    of column ``j``, shifts in rows as ``map_coordinates`` takes them. The
    phase ramps are applied per ``row_blocks`` block of columns, so no
    spectrum-sized phase matrix is built."""
    n = values.shape[0]
    R, freq = np.fft.rfft(values, axis=0), np.fft.rfftfreq(n)
    for cols in row_blocks(R.shape[1]):
        R[:, cols] *= np.exp(-2j * np.pi * np.outer(freq, shifts[cols]))
    return np.fft.irfft(R, n, axis=0)


def _spline_coefficients(values: np.ndarray) -> np.ndarray:
    # cubic B-spline coefficients along x with mirror boundaries, by the
    # causal and anticausal recursions of the pole z = sqrt(3) - 2 (Unser,
    # Aldroubi & Eden 1993); the causal start sums z^k over the mirror-extended
    # column, the anticausal start is the mirror's closed form; the powers
    # of z underflow to zero past a few hundred rows, as they should
    n = values.shape[0]
    c = values * 6.0
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


def map_coordinates(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Cubic B-spline samples of ``values`` at row ``i - shifts[j]`` of each
    column ``j`` (shifts in rows), as ``scipy.ndimage.map_coordinates`` with
    ``order=3, mode="constant", cval=0.0`` gives them: the spline takes
    mirror boundaries along x, so taps -1 and n_x inside the grid read the
    mirrored coefficients, and every point outside [0, n_x - 1] is +0.0.

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
    rows = np.abs((np.arange(-1, n + 2) + n - 1) % (2 * n - 2) - (n - 1))
    coef = _spline_coefficients(values)[rows].ravel()
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
    out = np.empty((n, n_p))
    for b in row_blocks(n):
        # flat index of tap 0 (coefficient row floor(i - shift) - 1) of each
        # point; points off the grid read clipped indices and are zeroed last
        i = np.arange(b.start, b.stop)[:, None]
        flat, block = i * n_p + base, out[b]
        np.take(coef, flat, mode="clip", out=block)
        block *= weights[0]
        for k in (1, 2, 3):
            block += np.take(coef[k * n_p:], flat, mode="clip") * weights[k]
        np.copyto(block, 0.0, where=(i < -start) | (i > last))
    return out


def shear_evolve(w0: WignerField, s: ShearParams,
                 check_support: bool = True) -> WignerField:
    """Translate momentum row j by +p_j t / m along x; out-of-grid fill 0.

    A field whose edge mass is at most 1e-6 of its absolute mass is
    shifted spectrally (``_fourier_shift_rows``), any other by the cubic
    spline (``map_coordinates``), which does not wrap. The field keeps its
    ``abs_mass`` and ``edge_mass``, so a plan's unchanging W0 is measured
    once, not on every frame. t = 0 returns a field on w0's own
    (immutable) values.

    Raises SupportEscaped when the post-shear edge mass exceeds
    1e-4 of the field's absolute mass (with check_support on; scenario
    builders for deliberately extended states switch it off).
    """
    grid = w0.grid
    if s.t == 0.0:
        return WignerField(grid, w0.values)
    shifts = grid.p_axis() * (s.t / s.m) / grid.dx  # in rows

    total = w0.abs_mass
    fourier = total == 0.0 or w0.edge_mass <= _FOURIER_SAFE_RATIO * total
    shifted = (_fourier_shift_rows if fourier else map_coordinates)(w0.values, shifts)
    shifted.flags.writeable = False  # a fresh array: the field keeps it
    result = WignerField(grid, shifted)
    if check_support:
        post_total = result.abs_mass
        if post_total > 0.0 and result.edge_mass > EDGE_GUARD_RATIO * post_total:
            raise SupportEscaped(
                f"post-shear edge mass {result.edge_mass:.3e} exceeds "
                f"{EDGE_GUARD_RATIO:g} of the field mass; the state left the window"
            )
    return result


def naive_bounded_evolve(w0: WignerField, s: ShearParams) -> WignerField:
    """Shear, then multiply by the sheared wall step theta(x - p t / m).

    Reproduces the incorrect bounded solution: its support condition is
    x > p t / m, which admits x < 0 in rows with p < 0. Input must come
    from a state that vanishes for x <= 0.
    """
    grid = w0.grid
    total = w0.abs_mass
    if total > 0.0 and wall_violation_mass(w0) > 1e-8 * total:
        raise ValidationError(
            "naive evolution expects an initial field vanishing for x <= 0"
        )
    sheared = shear_evolve(w0, s)
    mask = (grid.x_axis()[:, None] - grid.p_axis()[None, :] * (s.t / s.m)) > 0.0
    return WignerField(grid, sheared.values * mask)


def wall_violation_mass(w: WignerField) -> float:
    """|W| mass in the forbidden region x <= 0."""
    rows = w.grid.x_axis() <= 0.0
    return float(np.abs(w.values[rows, :]).sum() * w.grid.dx * w.grid.dp)
