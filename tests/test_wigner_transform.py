import numpy as np
import pytest
import scipy.fft as sfft
from scipy.signal import czt

from wignerwall import (
    ComplexWave,
    DomainTooSmall,
    GaussianPacket,
    GridMismatch,
    NyquistViolation,
    PhaseGrid,
    box_evolve,
    free_gaussian,
    images_reflect,
    marginal_p,
    project_gaussian_to_box,
    total_mass,
    wigner_of,
)
from wignerwall.convolution_engine import point_symmetry_defect
from wignerwall.wigner_transform import (
    _czt,
    correlation_matrix,
    fourier_over_separation,
    next_fast_len,
)

from conftest import odd_extended_wave, scipy_modules_after


def gauss_exact(grid):
    X, P = np.meshgrid(grid.x_axis(), grid.p_axis(), indexing="ij")
    return np.exp(-X**2 / 2 - 2 * P**2) / np.pi


def test_gaussian_closed_form(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    center = w.values[grid.index_near_x(0.0), grid.zero_p_index()]
    assert abs(center - 1 / np.pi) < 1e-6
    assert np.abs(w.values - gauss_exact(grid)).max() < 1e-9


def test_odd_wave_center_value(grid):
    # any normalized odd wavefunction has W(0, 0) = -1/pi; the quadrature
    # oracle evaluates the x = 0 reduction -(1/2pi) int |psi(y/2)|^2 dy
    g = GaussianPacket(x0=5.0, p0=1.0, sigma=1.0, m=1.0)
    psi = odd_extended_wave(g, grid, normalized=True)
    x = psi.x_axis()
    oracle = -np.trapezoid(np.abs(psi.samples) ** 2, x) / np.pi
    w = wigner_of(psi, grid)
    center = w.values[grid.index_near_x(0.0), grid.zero_p_index()]
    assert abs(center - oracle) < 1e-6
    assert abs(center - (-1 / np.pi)) < 1e-4


def test_zero_wave(grid):
    # no nonzero sample: an empty correlation block, nothing transformed
    for q in (1, 8):
        n = (grid.n_x - 1) * q + 1
        psi = ComplexWave(grid.x_min, grid.dx / q, n, np.zeros(n))
        C, K, _ = correlation_matrix(psi, grid)
        assert C.shape == (0, 1) and K == 0
        w = wigner_of(psi, grid)
        assert same_bits(w.values, np.zeros((grid.n_x, grid.n_p)))


def realness_residue(psi, grid):
    """Max imaginary residue of the raw transform of every anchored row."""
    C, K, _ = correlation_matrix(psi, grid)
    return np.abs(fourier_over_separation(C, K, 2 * psi.dx, grid.p_axis()).imag).max()


def test_realness_gaussian(grid, gaussian_wave):
    assert realness_residue(gaussian_wave, grid) < 1e-12


def test_realness_random_smooth(grid):
    # band-limited random wave: low-pass filtered noise, unit norm
    rng = np.random.default_rng(42)
    n = grid.n_x
    coeffs = np.zeros(n, dtype=complex)
    keep = 12
    coeffs[:keep] = rng.normal(size=keep) + 1j * rng.normal(size=keep)
    samples = np.fft.ifft(coeffs) * np.exp(-grid.x_axis() ** 2 / 8.0)
    samples /= np.sqrt(np.sum(np.abs(samples) ** 2) * grid.dx)
    psi = ComplexWave(grid.x_min, grid.dx, n, samples)
    assert realness_residue(psi, grid) < 1e-10


def test_corrupted_correlation_detected(grid, gaussian_wave):
    C, K, _ = correlation_matrix(gaussian_wave, grid)
    assert np.abs(C - np.conj(C[:, ::-1])).max() < 1e-15
    bad = C.copy()
    bad[:, K + 3] += 0.1  # break c(-y) = c(y)* on one column
    assert np.abs(bad - np.conj(bad[:, ::-1])).max() > 1e-3
    W = fourier_over_separation(bad, K, 2 * gaussian_wave.dx, grid.p_axis())
    assert np.abs(W.imag).max() > 1e-3


def test_point_reflection_symmetry_for_odd_input(grid):
    g = GaussianPacket(x0=4.0, p0=-2.0, sigma=0.8, m=1.0)
    w = wigner_of(odd_extended_wave(g, grid), grid)
    assert point_symmetry_defect(w) < 1e-8


def test_norm_map(grid):
    g = GaussianPacket(x0=4.0, p0=1.0, sigma=0.9, m=1.0)
    psi = odd_extended_wave(g, grid)
    w = wigner_of(psi, grid)
    assert abs(total_mass(w) - psi.norm_sq()) < 1e-6


def test_galilean_boost_shifts_momentum(grid, gaussian_wave):
    p0 = 3.0
    boosted = ComplexWave(grid.x_min, grid.dx, grid.n_x,
                          gaussian_wave.samples * np.exp(1j * p0 * grid.x_axis()))
    base = marginal_p(wigner_of(gaussian_wave, grid))
    shifted = marginal_p(wigner_of(boosted, grid))
    p = grid.p_axis()
    assert abs(p[np.argmax(shifted)] - (p[np.argmax(base)] + p0)) <= grid.dp


def test_czt_matches_direct(grid):
    g = GaussianPacket(x0=2.0, p0=-1.0, sigma=0.7, m=1.0)
    psi = free_gaussian(g, 0.5, grid.x_min, grid.dx, grid.n_x)
    w_fast = wigner_of(psi, grid)
    w_ref = wigner_of(psi, grid, backend="direct")
    assert np.abs(w_fast.values - w_ref.values).max() < 1e-12


def test_oversampled_axis_agrees(grid, packet):
    q = 4
    dxf = grid.dx / q
    nf = (grid.n_x - 1) * q + 1
    psi_f = free_gaussian(packet, 0.0, grid.x_min, dxf, nf)
    w_f = wigner_of(psi_f, grid)
    assert np.abs(w_f.values - gauss_exact(grid)).max() < 1e-9


def test_domain_too_small(grid):
    g = GaussianPacket(x0=11.0, p0=0.0, sigma=1.0, m=1.0)
    psi = ComplexWave(grid.x_min, grid.dx, grid.n_x,
                      g.amplitude(grid.x_axis(), 0.0))
    with pytest.raises(DomainTooSmall):
        wigner_of(psi, grid)


def test_nyquist_violation(gaussian_wave):
    wide = PhaseGrid(-12.0, 12.0, 257, -40.0, 40.0, 257)
    with pytest.raises(NyquistViolation):
        wigner_of(gaussian_wave, wide)


def test_misaligned_axis_rejected(grid, packet):
    psi = free_gaussian(packet, 0.0, grid.x_min + 0.4 * grid.dx, grid.dx, grid.n_x)
    with pytest.raises(GridMismatch):
        wigner_of(psi, grid)


def test_y_cap_requires_margin(grid, packet):
    psi = free_gaussian(packet, 0.0, grid.x_min, grid.dx, grid.n_x)
    with pytest.raises(DomainTooSmall):
        wigner_of(psi, grid, y_halfwidth=4.0)  # axis == grid: no margin


def test_y_cap_on_extended_axis(grid, packet):
    pad = 64
    ax_min = grid.x_min - pad * grid.dx
    n = grid.n_x + 2 * pad
    psi = free_gaussian(packet, 0.0, ax_min, grid.dx, n)
    w = wigner_of(psi, grid, y_halfwidth=pad * grid.dx * 2 - grid.dx)
    # the packet correlation decays well inside the cap, so the capped
    # transform matches the closed form as tightly as the full one
    assert np.abs(w.values - gauss_exact(grid)).max() < 1e-8


def fancy_index_correlation(psi, grid, K):
    """The full-size index-array construction the row slices replace."""
    rows = np.round((grid.x_axis() - psi.x_min) / psi.dx).astype(int)
    ks = np.arange(-K, K + 1)
    i_plus = rows[:, None] + ks[None, :]
    i_minus = rows[:, None] - ks[None, :]
    ok = (i_plus >= 0) & (i_plus < psi.n) & (i_minus >= 0) & (i_minus < psi.n)
    s = psi.samples
    return np.where(ok,
                    np.conj(s[np.clip(i_plus, 0, psi.n - 1)])
                    * s[np.clip(i_minus, 0, psi.n - 1)],
                    0.0)


def same_bits(a, b):
    # uint64 views tell -0.0 from +0.0, which np.array_equal on floats does not
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n_x", [129, 128])
@pytest.mark.parametrize("layout", ["grid", "oversampled", "capped"])
def test_correlation_rows_match_fancy_index(n_x, layout):
    grid = PhaseGrid(-6.0, 6.0, n_x, -4.0, 4.0, 65)
    # p0 != 0 and an odd extension give complex values of both signs, and
    # an exact zero sample wherever x = 0 is an axis node
    g = GaussianPacket(x0=1.5, p0=0.7, sigma=0.5, m=1.0)
    y_halfwidth, q, pad = None, 1, 0
    if layout == "oversampled":
        q = 8
    elif layout == "capped":
        pad = 16
        y_halfwidth = 2 * pad * grid.dx - grid.dx
    dx = grid.dx / q
    x = grid.x_min - pad * grid.dx + dx * np.arange((n_x - 1 + 2 * pad) * q + 1)
    psi = ComplexWave(x[0], dx, len(x), g.amplitude(x, 0.0) - g.amplitude(-x, 0.0))
    C, K, sel = correlation_matrix(psi, grid, y_halfwidth)
    # K is the largest lag a row anchored on the support [lo, hi] can use,
    # min(cap, r - lo, hi - r); the wave fills its axis here, so the full
    # reach drops to at most half the axis and the capped reach stays the cap
    full_reach = psi.n - 1 if y_halfwidth is None else pad - 1
    rows = np.round((grid.x_axis() - psi.x_min) / psi.dx).astype(int)
    lo, hi = np.flatnonzero(psi.samples)[[0, -1]]
    r = rows[sel]
    assert np.all((r >= lo) & (r <= hi))
    assert K == np.minimum(full_reach, np.minimum(r - lo, hi - r)).max()
    assert (2 * K <= psi.n - 1) if y_halfwidth is None else (K == full_reach)
    assert same_bits(C, fancy_index_correlation(psi, grid, K)[sel])
    # the cut drops exact zeros only: at the old reach, everything outside
    # the returned block is 0
    old = fancy_index_correlation(psi, grid, full_reach)
    block = (sel, slice(full_reach - K, full_reach + K + 1))
    assert same_bits(old[block], C)
    old[block] = 0.0
    assert not old.any()


def test_support_cut_matches_direct_sum():
    # a theta(x)-truncated odd packet and a box wave, zero outside (a, b),
    # on an 8x axis over a small grid; part of the grid lies off each
    # wave's support
    grid = PhaseGrid(-6.0, 6.0, 49, -4.0, 4.0, 33)
    q = 8
    axis = (grid.x_min, grid.dx / q, (grid.n_x - 1) * q + 1)
    g = GaussianPacket(x0=2.5, p0=-1.5, sigma=0.3, m=1.0)
    box = GaussianPacket(x0=0.2, p0=1.0, sigma=0.4, m=1.0)
    spectrum = project_gaussian_to_box(box, -3.0, 3.5, 64)
    waves = [(images_reflect(g, 0.3, *axis), 0.0, np.inf),
             (box_evolve(spectrum, 0.4, *axis), -3.0, 3.5)]
    for psi, a, b in waves:
        w = wigner_of(psi, grid)
        ref = wigner_of(psi, grid, backend="direct")
        scale = np.abs(ref.values).max()
        assert np.abs(w.values - ref.values).max() < 1e-11 * scale
        # rows anchored off the support come back as exact (+0.0) zeros
        nz = psi.x_axis()[np.flatnonzero(psi.samples)]
        x = grid.x_axis()
        off = (x < nz[0]) | (x > nz[-1])
        assert off.sum() >= 10 and np.all((x[off] <= a) | (x[off] >= b))
        assert same_bits(w.values[off], np.zeros((off.sum(), grid.n_p)))
        assert np.abs(w.values[~off]).max() > 0.1 * scale


@pytest.mark.parametrize("shape, m", [((257,), 129), ((257,), 400),
                                      ((3, 257), 129), ((3, 257), 400)]
                         # stacks of several row counts, and a 3-D stack
                         + [((rows, 257), m) for rows in (1, 7, 8, 9, 257)
                            for m in (129, 400)]
                         + [((2, 5, 257), 129)])
def test_czt_bit_identical_to_scipy_signal(shape, m):
    # _czt runs every row of its input through the padded transforms at once
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dy, p0, dp = 0.1, -4.0, 8.0 / (m - 1)
    w, a = np.exp(1j * dp * dy), np.exp(-1j * p0 * dy)
    assert same_bits(_czt(x, m, w, a), czt(x, m=m, w=w, a=a, axis=-1))


def test_next_fast_len_matches_scipy():
    assert [next_fast_len(n) for n in range(1, 20001)] == \
        [sfft.next_fast_len(n) for n in range(1, 20001)]


def test_cli_import_leaves_scipy_signal_out():
    # no scipy module loads with the CLI
    assert scipy_modules_after("import wignerwall.cli") == []
