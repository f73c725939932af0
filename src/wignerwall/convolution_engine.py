"""Bounded Wigner dynamics: free shear composed with per-row momentum
convolution against a boundary kernel.

The bounded solution is W(x, p, t) = [W0(. - p t/m, .) conv_p K](x, p),
where W0 is the free Wigner field of the image-extended initial state
and K the geometry kernel. Convolution is linear (zero padded, never
circular) with rectangle measure dp.

Kernel sampling: the convolution at output momentum p_j against sources
across the whole window needs kernel arguments out to +-(n_p - 1) dp,
twice the half-window. The engine therefore evaluates kernel rows on that
momentum difference lattice from the kernel's jumps (``rows_at``) instead
of reusing the grid-window samples; with window-limited rows the slow sinc
tails are cut early enough to spoil oracle-level agreement near walls.
The plan keeps only the spectrum of the inside rows' kernel rows, so each
frame transforms those field rows alone.

Transforms run on ``numpy.fft``, whose real and complex transforms give
the same bits as ``scipy.fft``'s, at the same padded lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# bound to this name because the benchmark tracer wraps
# ``convolution_engine.sfft`` to count the points each transform processes
import numpy.fft as sfft

from .boundary_kernels import BoundaryKernel, halfline_kernel
from .errors import GridMismatch, LengthMismatch, ValidationError
from .free_evolution import ShearParams, shear_evolve
from .phase_grid import WignerField, marginal_x, row_blocks
from .wigner_transform import next_fast_len
from .wigner_transform import wigner_of  # noqa: F401 -- benchmark/tracer.py wraps it here

_SYMMETRY_TOL = 1e-6


def convolve_p(row_w: np.ndarray, row_k: np.ndarray, dp: float) -> np.ndarray:
    """Linear discrete convolution along p with measure dp; the direct
    reference for the engine's FFT path.

    ``row_k`` is a kernel row on the momentum difference lattice: for an
    n-sample ``row_w`` it has 2 n - 1 samples with p = 0 at index n - 1,
    and out[j] = dp * sum_l row_w[l] * row_k[j - l + n - 1].
    """
    u = np.asarray(row_w, dtype=np.float64)
    v = np.asarray(row_k, dtype=np.float64)
    n = u.size
    if v.size != 2 * n - 1:
        raise LengthMismatch(
            f"kernel row length {v.size} is not 2 n - 1 = {2 * n - 1}")
    full = np.convolve(u, v)
    return dp * full[n - 1:2 * n - 1]


def _row_spectrum(rows_k: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The rfft of kernel rows at the padded length L of their convolution
    with n-sample rows, the next fast length of full linear length; and L."""
    L = next_fast_len(n + rows_k.shape[1] - 1)
    return sfft.rfft(rows_k, L, axis=1), L


def _batched_fft_convolve(rows_w: np.ndarray, rows_k: np.ndarray | None, dp: float,
                          z0: int, spectrum: tuple[np.ndarray, int] | None = None
                          ) -> np.ndarray:
    """FFT path of the row convolutions; identical contract to convolve_p
    applied row-wise. ``spectrum`` is ``_row_spectrum(rows_k, n)`` when the
    caller keeps it; ``rows_k`` is then not read."""
    n = rows_w.shape[1]
    fk, L = _row_spectrum(rows_k, n) if spectrum is None else spectrum
    full = sfft.irfft(sfft.rfft(rows_w, L, axis=1) * fk, L, axis=1)
    return dp * full[:, z0:z0 + n]


@dataclass(frozen=True)
class BoundedEvolutionPlan:
    """Everything needed to evaluate the bounded solution at any time.

    ``initial`` is the free Wigner field of the image-extended state at
    t = 0 (odd extension for the half line; periodic odd images for an
    interval), sharing one grid with ``kernel``. ``shear`` supplies the
    mass; ``evolve_bounded`` takes the time. ``check_support`` is
    forwarded to the shear (interval scenarios disable the support guard
    since the image train legitimately fills the window). The plan keeps
    the kernel's inside-row mask and the spectrum of those kernel rows.

    The grid must resolve the kernel: its rows oscillate in p at the
    separation reach 2|x|, so 2 max|x| < pi/dp. Half-line plans also
    verify the point-reflection symmetry W0(-x, -p) = W0(x, p) of the
    initial field, the discrete footprint of the odd-state requirement.
    """

    kernel: BoundaryKernel
    shear: ShearParams
    initial: WignerField
    check_support: bool = True
    _inside: np.ndarray = field(init=False, repr=False, compare=False)
    _kernel_spectrum: tuple[np.ndarray, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel.grid != self.initial.grid:
            raise GridMismatch("kernel and initial field grids differ")
        grid = self.initial.grid
        grid.zero_p_index()  # p = 0 must be on the axis for row alignment
        xmax = max(abs(grid.x_min), abs(grid.x_max))
        if 2.0 * xmax >= np.pi / grid.dp:
            raise ValidationError(
                "kernel separation reach 2|x| exceeds pi/dp; refine the p axis")
        if self.kernel.provenance == "analytic-halfline":
            defect = point_symmetry_defect(self.initial)
            if defect > _SYMMETRY_TOL:
                raise ValidationError(
                    f"initial field breaks W(-x,-p) = W(x,p) by {defect:.2e}; "
                    "half-line plans require the odd-extended state"
                )
        karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
        inside = self.kernel.inside_rows()
        object.__setattr__(self, "_inside", inside)
        object.__setattr__(self, "_kernel_spectrum",
                           _row_spectrum(self.kernel.rows_at(karg)[inside], grid.n_p))


def point_symmetry_defect(w: WignerField) -> float:
    """Max |W(-x, -p) - W(x, p)| over grid points whose mirrors exist,
    compared per ``row_blocks`` block of x rows with their mirrored rows."""
    g = w.grid
    xi = np.round((-g.x_axis() - g.x_min) / g.dx).astype(int)
    pj = np.round((-g.p_axis() - g.p_min) / g.dp).astype(int)
    ok_x = (xi >= 0) & (xi < g.n_x) & \
        (np.abs(-g.x_axis() - (g.x_min + xi * g.dx)) < 1e-9 * max(1.0, g.dx))
    ok_p = (pj >= 0) & (pj < g.n_p) & \
        (np.abs(-g.p_axis() - (g.p_min + pj * g.dp)) < 1e-9 * max(1.0, g.dp))
    if not (ok_x.any() and ok_p.any()):
        return 0.0
    rows, cols = np.flatnonzero(ok_x), np.flatnonzero(ok_p)
    defect = 0.0
    for b in row_blocks(len(rows)):
        r = rows[b]
        diff = w.values[np.ix_(r, cols)] - w.values[np.ix_(xi[r], pj[cols])]
        defect = max(defect, float(np.abs(diff).max()))
    return defect


def evolve_bounded(plan: BoundedEvolutionPlan, t: float) -> WignerField:
    """Bounded field at time t.

    Shear first, then convolve each x row along p with its kernel row.
    Only the inside rows are convolved, per ``row_blocks`` block, against
    the matching rows of the plan's kernel spectrum; the rows outside the
    walls, whose kernel row vanishes, are exactly +0.0.

    A box plan holds only up to a horizon that is not p0 t / m <= L: with
    L = 10 its l2_rel passes 1e-2 once t (|p0| + 3 sigma_p) / m passes
    about 22-24.4, sigma_p = 1/(2 sigma) (see ``interval_kernel``).
    """
    grid = plan.initial.grid
    sheared = shear_evolve(plan.initial, ShearParams(t, plan.shear.m),
                           check_support=plan.check_support)
    out = np.zeros_like(sheared.values)
    inside, (fk, L) = np.flatnonzero(plan._inside), plan._kernel_spectrum
    for b in row_blocks(len(inside)):
        rows = inside[b]
        out[rows] = _batched_fft_convolve(sheared.values[rows], None, grid.dp,
                                          grid.n_p - 1, (fk[b], L))
    del sheared
    out.flags.writeable = False  # a fresh array: the field keeps it
    return WignerField(grid, out)


def far_field_check(w0: WignerField, x_probe: float) -> float:
    """Deviation of the half-line bounded row from the free row at ``x_probe``.

    Far from the wall the momentum convolution against the kernel row
    tends to the identity, so for a state far inside the region the
    bounded row approaches theta(x) W0; the return value is the max
    absolute difference at the grid row nearest to ``x_probe`` (t = 0).
    """
    grid = w0.grid
    i = grid.index_near_x(x_probe)
    karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
    row_k = halfline_kernel(grid).rows_at(karg)[i]
    conv = _batched_fft_convolve(w0.values[i:i + 1], row_k[None, :], grid.dp,
                                 grid.n_p - 1)[0]
    free = w0.values[i] if grid.x_at(i) > 0 else np.zeros(grid.n_p)
    return float(np.abs(conv - free).max())


def kernel_tail_bound(kernel: BoundaryKernel, w0: WignerField) -> float:
    """State-weighted bound on the kernel tail truncation error.

    Sum over rows of |1 - int K dp| times the state's position density,
    the per-run diagnostic surfaced in scenario reports.
    """
    if kernel.grid != w0.grid:
        raise GridMismatch("kernel and field grids differ")
    inside = kernel.inside_rows()
    tails = np.abs(kernel.tail_mass())
    dens = np.abs(marginal_x(w0))
    return float(np.sum(tails[inside] * dens[inside]) * w0.grid.dx)

