"""Exact free propagation of Wigner fields by the phase-space shear.

Free dynamics obeys dW/dt = -(p/m) dW/dx, solved exactly by
W(x, p, t) = W(x - p t / m, p, 0): each momentum row translates along x
at its own velocity p/m. Rows are shifted spectrally (exact for
band-limited data) by default, with a cubic-spline fallback for data
that is not safe to wrap.

Also provides the naive bounded evolution: masking the initial field
with theta(x) and then shearing, which visibly violates the hard-wall
condition because the sheared support obeys x > p t / m rather than
x > 0. It exists for demonstration and contrast tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportEscaped, ValidationError
from .phase_grid import PhaseGrid, WignerField, abs_mass, edge_mass

EDGE_GUARD_RATIO = 1e-4
_FOURIER_SAFE_RATIO = 1e-6


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


def _fourier_shift_rows(values: np.ndarray, grid: PhaseGrid,
                        shifts: np.ndarray) -> np.ndarray:
    # the spectrum of the real field is its rfft with the conjugate mirror
    # appended, the spectrum scipy.fft.fft gives bit for bit; numpy's fft
    # of the field cast to complex differs in the last bits
    n = grid.n_x
    R = np.fft.rfft(values, axis=0)
    F = np.concatenate((R, np.conj(R[(n - 1) // 2:0:-1])))
    F *= np.exp(-2j * np.pi * np.outer(np.fft.fftfreq(n, d=grid.dx), shifts))
    return np.real(np.fft.ifft(F, axis=0))


def map_coordinates(*args, **kwargs):
    """``scipy.ndimage.map_coordinates``, with ``scipy.ndimage`` imported on
    the first call: only the cubic shear uses it, so importing the package
    does not pay for it. It stays a module attribute that
    ``_cubic_shift_rows`` looks up at call time, because the benchmark
    tracer wraps ``free_evolution.map_coordinates`` and requires its span
    under ``shear_evolve``; an import inside ``_cubic_shift_rows`` would
    bypass the wrapper and fail the tracer's coverage guard."""
    from scipy import ndimage
    return ndimage.map_coordinates(*args, **kwargs)


def _cubic_shift_rows(values: np.ndarray, grid: PhaseGrid,
                      shifts: np.ndarray) -> np.ndarray:
    # sample column j of the input at fractional row index i - s_j/dx
    rows = np.arange(grid.n_x, dtype=np.float64)[:, None] - (shifts / grid.dx)[None, :]
    cols = np.broadcast_to(np.arange(grid.n_p, dtype=np.float64), rows.shape)
    return map_coordinates(values, [rows, cols], order=3, mode="constant", cval=0.0)


def shear_evolve(w0: WignerField, s: ShearParams, method: str = "auto",
                 check_support: bool = True) -> WignerField:
    """Translate momentum row j by +p_j t / m along x; out-of-grid fill 0.

    method "fourier" shifts spectrally, "cubic" by spline interpolation,
    "auto" picks fourier when the field is safely edge-decayed and cubic
    otherwise. t = 0 returns a bit-equal copy.

    Raises SupportEscaped when the post-shear edge mass exceeds
    1e-4 of the field's absolute mass (with check_support on; scenario
    builders for deliberately extended states switch it off).
    """
    if method not in ("auto", "fourier", "cubic"):
        raise ValueError(f"unknown shear method {method!r}")
    grid = w0.grid
    if s.t == 0.0:
        return WignerField(grid, w0.values)
    shifts = grid.p_axis() * (s.t / s.m)

    total = abs_mass(w0)
    pre_edge = edge_mass(w0)
    if method == "auto":
        method = "fourier" if (total == 0.0 or pre_edge <= _FOURIER_SAFE_RATIO * total) \
            else "cubic"
    if method == "fourier":
        out = _fourier_shift_rows(w0.values, grid, shifts)
    else:
        out = _cubic_shift_rows(w0.values, grid, shifts)

    result = WignerField(grid, out)
    if check_support:
        post_total = abs_mass(result)
        if post_total > 0.0 and edge_mass(result) > EDGE_GUARD_RATIO * post_total:
            raise SupportEscaped(
                f"post-shear edge mass {edge_mass(result):.3e} exceeds "
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
    x = grid.x_axis()
    wall_rows = x <= 0.0
    wall_frac = np.abs(w0.values[wall_rows, :]).sum() * grid.dx * grid.dp
    total = abs_mass(w0)
    if total > 0.0 and wall_frac > 1e-8 * total:
        raise ValidationError(
            "naive evolution expects an initial field vanishing for x <= 0"
        )
    sheared = shear_evolve(w0, s)
    mask = (x[:, None] - grid.p_axis()[None, :] * (s.t / s.m)) > 0.0
    return WignerField(grid, sheared.values * mask)


def wall_violation_mass(w: WignerField) -> float:
    """|W| mass in the forbidden region x <= 0."""
    rows = w.grid.x_axis() <= 0.0
    return float(np.abs(w.values[rows, :]).sum() * w.grid.dx * w.grid.dp)
