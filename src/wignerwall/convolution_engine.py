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
Only the kernel's inside rows are evaluated, and the plan keeps only their
spectrum, so each frame shears and transforms the span of those field rows
alone.

Each row is convolved on a circle of the next fast length of 2 n_p - 1,
the shortest on which the n_p kept outputs do not alias (the full linear
length is 3 n_p - 2). Every kernel row is even in the momentum
difference, so centred on that circle (p = 0 at index 0, negative lags
wrapped to the end) its spectrum is real: the plan keeps those real
amplitudes, half the bytes of the complex spectrum, and guards the
imaginary residue it drops. Transforms run on ``numpy.fft``, whose real
and complex transforms give the same bits as ``scipy.fft``'s, at the same
padded lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# bound to this name because the benchmark tracer wraps
# ``convolution_engine.sfft`` to count the points each transform processes
import numpy.fft as sfft

from .boundary_kernels import BoundaryKernel, _sinc_rows, halfline_kernel
from .errors import GridMismatch, LengthMismatch, ValidationError, guard
from .free_evolution import ShearParams, shear_evolve
from .phase_grid import WignerField, marginal_x, row_blocks
from .wigner_transform import next_fast_len
from .wigner_transform import wigner_of  # noqa: F401 -- benchmark/tracer.py wraps it here


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


def _batched_fft_convolve(rows_w: np.ndarray, rows_k: np.ndarray | None, dp: float,
                          z0: int, spectrum: tuple[np.ndarray, int] | None = None
                          ) -> np.ndarray:
    """FFT path of the row convolutions; identical contract to convolve_p
    applied row-wise. The m-sample kernel rows ``rows_k`` are padded to L,
    the next fast length on whose circle the kept outputs z0 ... z0 + n - 1
    do not alias, L >= max(z0 + n, n + m - 1 - z0). ``spectrum``, a kernel
    spectrum and its L that the caller keeps (the plan's real amplitudes,
    at z0 = 0), stands in for their rfft; ``rows_k`` is then not read. The
    rows' rfft is multiplied by it in place."""
    n = rows_w.shape[1]
    if spectrum is None:
        L = next_fast_len(max(z0 + n, n + rows_k.shape[1] - 1 - z0))
        fk = sfft.rfft(rows_k, L, axis=1)
    else:
        fk, L = spectrum
    f = sfft.rfft(rows_w, L, axis=1)
    full = sfft.irfft(np.multiply(f, fk, out=f), L, axis=1)
    full *= dp
    return full[:, z0:z0 + n]


@dataclass(frozen=True)
class BoundedEvolutionPlan:
    """Everything needed to evaluate the bounded solution at any time.

    ``initial`` is the free Wigner field of the image-extended state at
    t = 0 (odd extension for the half line; periodic odd images for an
    interval), sharing one grid with ``kernel``. ``shear`` supplies the
    mass; ``evolve_bounded`` takes the time. ``check_support`` is
    forwarded to the shear (interval scenarios disable the support guard
    since the image train legitimately fills the window). The plan keeps
    the spectrum of the kernel's inside rows, formed per ``row_blocks``
    block on the circle of length L = next_fast_len(2 n_p - 1) with p = 0
    at index 0, as real amplitudes: the rows are even, so the imaginary
    residue it drops is guarded against the amplitudes' peak (guard
    ``realness``).

    The grid must resolve the kernel: its rows oscillate in p at the
    separation reach 2|x|, so 2 max|x| < pi/dp. Half-line plans also
    verify the point-reflection symmetry W0(-x, -p) = W0(x, p) of the
    initial field to 1e-6 of its peak |W| (guard ``plan_symmetry``), the
    discrete footprint of the odd-state requirement; a grid on which that
    check could compare no point is refused first (GridMismatch, from
    ``point_symmetry_defect``).
    """

    kernel: BoundaryKernel
    shear: ShearParams
    initial: WignerField
    check_support: bool = True
    _kernel_amplitudes: tuple[np.ndarray, int] = field(init=False, repr=False, compare=False)

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
            w0 = self.initial.values
            guard("plan_symmetry", point_symmetry_defect(self.initial), max(w0.max(), -w0.min()))
        n = grid.n_p
        rows = self.kernel.rows_at(grid.dp * np.arange(-(n - 1), n))
        L = next_fast_len(2 * n - 1)
        amp, residue = np.empty((len(rows), L // 2 + 1)), 0.0
        for b in row_blocks(len(rows)):
            circle = np.zeros((len(rows[b]), L))
            circle[:, :n], circle[:, L - n + 1:] = rows[b, n - 1:], rows[b, :n - 1]
            f = sfft.rfft(circle, axis=1)
            residue = float(np.maximum(residue, np.abs(f.imag).max()))  # keeps a NaN
            amp[b] = f.real
        guard("realness", residue, max(amp.max(initial=0.0), -amp.min(initial=0.0)),
              transform="BoundedEvolutionPlan")
        object.__setattr__(self, "_kernel_amplitudes", (amp, L))


def point_symmetry_defect(w: WignerField) -> float:
    """Max |W(-x, -p) - W(x, p)| over grid points whose mirrors exist,
    compared per ``row_blocks`` block of x rows with their mirrored rows.

    On a uniform axis node i mirrors onto node c - i, c = -2 min / step,
    so the nodes that have a mirror form one range, and their mirrors are
    that range reversed: the field's slice over both ranges is compared
    with its ``[::-1, ::-1]`` view. An axis whose mirrors miss the nodes
    by step |c - round(c)| >= 1e-9 max(1, step), or whose range is empty,
    has no mirrored node, so no point could be compared: GridMismatch,
    naming that axis.
    """
    g, spans = w.grid, []
    for name, lo, step, n in (("x", g.x_min, g.dx, g.n_x), ("p", g.p_min, g.dp, g.n_p)):
        c = -2.0 * lo / step
        k = int(round(c))
        if step * abs(c - k) >= 1e-9 * max(1.0, step) or not 0 <= k <= 2 * n - 2:
            raise GridMismatch(
                f"no {name} node mirrors onto a node ({name}_min = {lo:.10g}, "
                f"d{name} = {step:.10g}), so W(-x, -p) = W(x, p) compares no point; "
                f"-2 {name}_min / d{name} must be an integer in [0, 2 n_{name} - 2]")
        spans.append(slice(max(0, k - n + 1), min(n, k + 1)))
    sub = w.values[tuple(spans)]
    return max(float(np.abs(sub[b] - sub[::-1, ::-1][b]).max()) for b in row_blocks(len(sub)))


def evolve_bounded(plan: BoundedEvolutionPlan, t: float) -> WignerField:
    """Bounded field at time t.

    Shear first, then convolve each x row along p with its kernel row.
    The shear forms only the span of the kernel's inside rows; those rows
    are convolved, per ``row_blocks`` block, against the matching rows of
    the plan's kernel amplitudes, keeping outputs 0 ... n_p - 1 of their
    circle. The rows outside the walls, whose kernel row vanishes, are
    exactly +0.0.

    A box plan holds only up to a horizon, which ``interval_kernel``
    states.
    """
    grid = plan.initial.grid
    inside, (amp, L) = np.flatnonzero(plan.kernel.inside), plan._kernel_amplitudes
    lo, hi = (inside[0], inside[-1] + 1) if inside.size else (0, 0)
    sheared = shear_evolve(plan.initial, ShearParams(t, plan.shear.m),
                           check_support=plan.check_support, rows=slice(lo, hi))
    out = np.zeros((grid.n_x, grid.n_p))
    for b in row_blocks(len(inside)):
        rows = inside[b]
        out[rows] = _batched_fft_convolve(sheared[rows - lo], None, grid.dp, 0, (amp[b], L))
    del sheared
    out.flags.writeable = False  # a fresh array: the field keeps it
    return WignerField(grid, out)


def far_field_check(w0: WignerField, x_probe: float) -> float:
    """Deviation of the half-line bounded row from the free row at ``x_probe``.

    Far from the wall the momentum convolution against the kernel row
    tends to the identity, so for a state far inside the region the
    bounded row approaches theta(x) W0; the return value is the max
    absolute difference at the grid row nearest to ``x_probe`` (t = 0).
    Only that row of the kernel is evaluated; off the region it is zero.
    """
    grid = w0.grid
    i = grid.index_near_x(x_probe)
    karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
    kernel = halfline_kernel(grid)
    row_k = _sinc_rows(kernel.jumps[i:i + 1], kernel.weights[i:i + 1], karg)
    conv = _batched_fft_convolve(w0.values[i:i + 1], row_k, grid.dp, grid.n_p - 1)[0]
    free = w0.values[i] if kernel.inside[i] else np.zeros(grid.n_p)
    return float(np.abs(conv - free).max())


def kernel_tail_bound(kernel: BoundaryKernel, w0: WignerField) -> float:
    """State-weighted bound on the kernel tail truncation error.

    Sum over the kernel's inside rows of |1 - int K dp| over the grid
    momentum window times the state's position density, the per-run
    diagnostic surfaced in scenario reports. Only the inside rows are
    evaluated; every other row is zero and does not enter the sum.
    """
    if kernel.grid != w0.grid:
        raise GridMismatch("kernel and field grids differ")
    tail = 1.0 - kernel.rows_at(w0.grid.p_axis()).sum(axis=1) * w0.grid.dp
    return float(np.sum(np.abs(tail * marginal_x(w0)[kernel.inside])) * w0.grid.dx)

