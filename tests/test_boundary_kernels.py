import itertools
import sys

import numpy as np
import pytest
from scipy.special import j1 as bessel_j1

from wignerwall import (
    AsymmetricIndicator,
    BadInterval,
    BadSampling,
    BoundaryKernel,
    EmptyInterior,
    PhaseGrid,
    RealnessViolation,
    ShapeIndicator,
    ValidationError,
    billiard_indicator,
    halfline_kernel,
    interval_kernel,
    kernel_field_1d,
    kernel_from_indicator,
    numeric_kernel,
)
from wignerwall.boundary_kernels import write_kernel_binary, write_kernel_csv
from wignerwall.phase_grid import read_field_binary, read_field_csv

KGRID = PhaseGrid(-4.0, 24.0, 141, -16.0, 16.0, 513)


def test_halfline_values():
    k = halfline_kernel(KGRID)
    x = KGRID.x_axis()
    j0 = KGRID.zero_p_index()
    pos = x > 0
    assert np.allclose(k.values[pos, j0], 2 * x[pos] / np.pi, rtol=0, atol=1e-12)
    assert np.all(k.values[~pos, :] == 0.0)
    p = KGRID.p_axis()
    xi = KGRID.index_near_x(3.0)
    expect = np.sin(2 * p[100] * x[xi]) / (np.pi * p[100])
    assert abs(k.values[xi, 100] - expect) < 1e-12


def test_halfline_evenness_exact():
    k = halfline_kernel(KGRID)
    assert np.array_equal(k.values, k.values[:, ::-1])


def test_halfline_scaling_identity():
    # K(lambda x, p / lambda) = lambda K(x, p) for the half-line profile
    k = halfline_kernel(KGRID)
    lam = 2.5
    p = np.linspace(-6.0, 6.0, 41)
    x = KGRID.x_axis()
    rows = k.rows_at(p)
    xi = KGRID.index_near_x(4.0)
    lam_x = x[xi] * lam
    with np.errstate(invalid="ignore"):
        k_lam = np.sin(2 * lam_x * (p / lam)) / (np.pi * (p / lam))
    k_lam[p == 0] = 2 * lam_x / np.pi
    assert np.abs(k_lam - lam * rows[xi]).max() < 1e-9


def test_halfline_row_mass_well_inside():
    dp = 24.0 / 512
    g = PhaseGrid(-25.0, 25.0, 512, -12.0, 12.0 - dp, 512)
    k = halfline_kernel(g)
    mass = k.values.sum(axis=1) * g.dp
    for x_probe in (5.0, 10.0, 20.0):
        i = g.index_near_x(x_probe)
        assert abs(mass[i] - 1.0) < 1e-3
        assert abs(k.tail_mass()[i]) < 1e-3
    # quadrature of the analytic profile over a wide momentum window
    pq = np.arange(-100.0, 100.0001, 0.01)
    rows = k.rows_at(pq)
    for x_probe in (5.0, 10.0, 20.0):
        i = g.index_near_x(x_probe)
        assert abs(rows[i].sum() * 0.01 - 1.0) < 1e-3


def test_interval_values_and_limit():
    grid = PhaseGrid(-2.0, 12.0, 141, -16.0, 16.0, 513)
    a, b = 1.0, 5.0
    k = interval_kernel(grid, a, b)
    x = grid.x_axis()
    p = grid.p_axis()
    mid = grid.index_near_x(0.5 * (a + b))
    L0 = b - a
    with np.errstate(invalid="ignore", divide="ignore"):
        expect = np.where(p == 0, L0 / np.pi, np.sin(L0 * p) / (np.pi * p))
    assert np.abs(k.values[mid] - expect).max() < 1e-12
    outside = (x <= a) | (x >= b)
    assert np.all(k.values[outside, :] == 0.0)
    # b pushed to the grid edge: near a the kernel is the translated half line
    k2 = interval_kernel(grid, a, grid.x_max)
    h = halfline_kernel(grid)
    sel = (x > a) & (x < a + 0.5 * (grid.x_max - a))
    ref_rows = np.searchsorted(x, x[sel] - a)
    # compare against the analytic profile at x - a directly
    hw = 2.0 * (x[sel] - a)
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = np.where(p[None, :] == 0, hw[:, None] / np.pi,
                       np.sin(hw[:, None] * p[None, :]) / (np.pi * p[None, :]))
    assert np.abs(k2.values[sel] - ref).max() < 1e-6


def test_interval_validation():
    grid = PhaseGrid(-2.0, 12.0, 57, -8.0, 8.0, 65)
    with pytest.raises(BadInterval):
        interval_kernel(grid, 5.0, 5.0)
    with pytest.raises(BadInterval):
        interval_kernel(grid, -3.0, 5.0)


def _aligned_halfline_setup():
    """x nodes with 2 x = (M + 1/2) dy: indicator jumps on cell boundaries."""
    dy = 0.002
    dx = 0.05
    x_min = 0.0005
    n_x = 60
    grid = PhaseGrid(x_min, x_min + (n_x - 1) * dx, n_x, -10.0, 10.0, 201)
    K = 3000
    y = dy * np.arange(-K, K + 1)
    return grid, y, dy


def test_numeric_rect_matches_analytic():
    grid, y, dy = _aligned_halfline_setup()
    p = grid.p_axis()
    for x0 in (0.7505, 1.5005, 2.9505):
        g = (np.abs(y) < 2 * x0).astype(float)
        row = numeric_kernel(g, dy, p)
        with np.errstate(invalid="ignore", divide="ignore"):
            expect = np.where(p == 0, 2 * x0 / np.pi, np.sin(2 * p * x0) / (np.pi * p))
        assert np.abs(row - expect).max() < 1e-6


def test_numeric_zero_and_ones():
    _, y, dy = _aligned_halfline_setup()
    p = np.arange(-150.0, 150.02, 0.04)
    assert np.all(numeric_kernel(np.zeros(len(y)), dy, p) == 0.0)
    # transform of 1 on the window: a delta-like column at p = 0 whose
    # integral over a wide enough momentum window is the indicator value
    row = numeric_kernel(np.ones(len(y)), dy, p)
    assert abs(p[np.argmax(row)]) < 1e-9
    assert abs(row.sum() * 0.04 - 1.0) < 1e-3


def test_numeric_asymmetric_rejected():
    _, y, dy = _aligned_halfline_setup()
    g = (np.abs(y) < 1.0).astype(float)
    g[10] += 0.5
    with pytest.raises(AsymmetricIndicator):
        numeric_kernel(g, dy, np.linspace(-4, 4, 33))


def _sinc_profile(halfwidth, p):
    """The one-jump row formula the stored jumps replaced, as it was."""
    hw = np.asarray(halfwidth, dtype=np.float64)[:, None]
    pp = np.asarray(p, dtype=np.float64)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(np.abs(pp) < 1e-300, hw / np.pi, np.sin(hw * pp) / (np.pi * pp))


@pytest.mark.parametrize("grid,make,halfwidth", [
    (KGRID, halfline_kernel, lambda x: np.where(x > 0.0, 2.0 * x, 0.0)),
    (PhaseGrid(-2.0, 12.0, 141, -16.0, 16.0, 513), lambda g: interval_kernel(g, 1.0, 5.0),
     lambda x: np.where((x > 1.0) & (x < 5.0), 2.0 * np.minimum(x - 1.0, 5.0 - x), 0.0)),
    (PhaseGrid(-10.0, 10.0, 101, -8.0, 8.0, 129), lambda g: interval_kernel(g, -6.0, 6.0),
     lambda x: np.where((x > -6.0) & (x < 6.0), 2.0 * np.minimum(x + 6.0, 6.0 - x), 0.0)),
], ids=["halfline", "interval", "interval-walls-on-nodes"])
def test_analytic_rows_bit_identical_to_sinc_profile(grid, make, halfwidth):
    k = make(grid)
    hw = halfwidth(grid.x_axis())
    karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
    for got, p in ((k.values, grid.p_axis()), (k.rows_at(karg), karg)):
        assert np.array_equal(got.view(np.uint64), _sinc_profile(hw, p).view(np.uint64))
    assert np.all(k.rows_at(karg)[hw == 0.0].view(np.uint64) == 0)  # +0.0 outside


def _direct_rows(g, dy, p):
    """kernel_from_indicator's 1-D cell-averaged direct sum of even slices."""
    K = g.shape[-1] // 2
    s = ShapeIndicator(1, (np.zeros(len(g)),), (dy * np.arange(-K, K + 1),), g)
    return kernel_from_indicator(s, [p])


_DY = 0.005
_Y = _DY * np.arange(-800, 801)
_RANDOM_HALF = np.random.default_rng(5).random(801)
_LINE_GRID = PhaseGrid(-1.0, 3.0, 9, -4.0, 4.0, 41)
# half line sampled on a 0.1 y step with 3 subsamples: fractional slices
_SUBSAMPLED = billiard_indicator(lambda x: 1.0 - x, [_LINE_GRID.x_axis()],
                                 [np.linspace(-4.0, 4.0, 81)], subsamples=3)


@pytest.mark.parametrize("g,dy", [
    (np.ones(_Y.size), _DY),
    ((np.abs(_Y) < 2 * 1.0025).astype(float), _DY),
    (np.concatenate([_RANDOM_HALF[:0:-1], _RANDOM_HALF]), _DY),
    (_SUBSAMPLED.g, 0.1),
], ids=["ones", "rect", "dense-random", "subsamples-3"])
def test_jump_rows_match_direct_sum(g, dy):
    g = np.atleast_2d(g)
    p = np.arange(-60.0, 60.01, 0.08)
    ref = _direct_rows(g, dy, p)
    rows = np.array([numeric_kernel(gi, dy, p) for gi in g])
    assert np.abs(rows - ref).max() <= 1e-11 * np.abs(ref).max()


def test_kernel_field_1d_rows_match_direct_sum():
    ind = _SUBSAMPLED
    assert len(np.unique(ind.g[:, 40:], axis=0)) > 3  # varied rows
    k = kernel_field_1d(ind, _LINE_GRID)
    p = np.arange(-60.0, 60.01, 0.08)
    ref = _direct_rows(ind.g, 0.1, p)
    assert np.abs(k.rows_at(p) - ref).max() <= 1e-11 * np.abs(ref).max()
    assert np.abs(k.values - _direct_rows(ind.g, 0.1, _LINE_GRID.p_axis())).max() \
        <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("dy", [-0.01, 0.0, np.nan, np.inf])
def test_numeric_bad_step_rejected(dy):
    g = (np.abs(_Y) < 1.0).astype(float)
    with pytest.raises(BadSampling):
        numeric_kernel(g, dy, np.linspace(-4, 4, 33))


def test_non_finite_slice_rejected():
    assert issubclass(BadSampling, ValidationError)
    g = (np.abs(_Y) < 1.0).astype(float)
    g[[3, -4]] = np.nan
    with pytest.raises(BadSampling):
        numeric_kernel(g, _DY, np.linspace(-4, 4, 33))
    grid = PhaseGrid(-1.0, 1.0, 3, -4.0, 4.0, 33)
    with pytest.raises(BadSampling):
        kernel_field_1d(ShapeIndicator(1, (grid.x_axis(),), (_Y,), np.tile(g, (3, 1))), grid)
    # the n-D transform's realness guard does not pass a NaN residue
    g2 = np.ones((1, 1, 5, 5))
    g2[0, 0, 2, 1] = g2[0, 0, 2, 3] = np.nan
    y = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(RealnessViolation):
        kernel_from_indicator(ShapeIndicator(2, (np.zeros(1),) * 2, (y, y), g2),
                              [np.linspace(-1, 1, 3)] * 2)


def test_kernel_field_1d_checks_evenness():
    grid = PhaseGrid(-1.0, 1.0, 3, -4.0, 4.0, 33)
    g = np.tile((np.abs(_Y) < 1.0).astype(float), (3, 1))
    g[1, 10] += 0.5
    with pytest.raises(AsymmetricIndicator):
        kernel_field_1d(ShapeIndicator(1, (grid.x_axis(),), (_Y,), g), grid)


def test_uneven_or_decreasing_y_axis_rejected():
    grid, y, _ = _aligned_halfline_setup()
    uneven = y.copy()
    uneven[3005] += 1e-4  # still symmetric and of odd length
    uneven[2995] -= 1e-4
    for bad in (uneven, y[::-1]):
        with pytest.raises(BadSampling):
            billiard_indicator(_halfline, [grid.x_axis()], [bad])
    with pytest.raises(AsymmetricIndicator):
        billiard_indicator(_halfline, [grid.x_axis()], [np.zeros(1)])
    # linspace axes pass: the disk's, C9's and the tests'
    for R, n in ((1.0, 441), (2.0, 441), (0.7, 3), (1.0, 61), (4.0, 81)):
        ax = np.linspace(-2.125 * R, 2.125 * R, n)
        assert billiard_indicator(_halfline, [np.array([1.0])], [ax]).g.shape == (1, n)


def test_kernel_rows_shape_checked():
    grid = PhaseGrid(-1.0, 1.0, 3, -4.0, 4.0, 33)
    with pytest.raises(BadInterval):
        BoundaryKernel(grid, np.ones((2, 1)), np.ones((2, 1)), "numeric", {})
    with pytest.raises(BadInterval):
        BoundaryKernel(grid, np.ones((3, 2)), np.ones((3, 1)), "numeric", {})


def test_indicator_halfline_path_matches_analytic_kernel():
    grid, y, dy = _aligned_halfline_setup()

    def level_set(x):
        return 1.0 - x  # inside means x > 0

    ind = billiard_indicator(level_set, [grid.x_axis()], [y])
    k_num = kernel_field_1d(ind, grid)
    k_ana = halfline_kernel(grid)
    assert np.abs(k_num.values - k_ana.values).max() < 1e-6
    assert k_num.provenance == "numeric"
    # profile evaluation beyond the stored window stays consistent
    karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
    assert np.abs(k_num.rows_at(karg) - k_ana.rows_at(karg)).max() < 1e-6


def test_indicator_interval_path_matches_analytic_kernel():
    dy = 0.002
    a, b = 0.3, 1.3  # 2 L / dy = 1000 keeps both walls cell-aligned
    dx = 0.025
    x_min = a + 0.0005 - 2 * dx  # brackets [a, b], nodes stay half-cell offset
    n_x = 45
    grid = PhaseGrid(x_min, x_min + (n_x - 1) * dx, n_x, -10.0, 10.0, 201)
    K = 1200
    y = dy * np.arange(-K, K + 1)

    def level_set(x):
        u = (x - a) / (b - a)
        return np.abs(2 * u - 1)  # inside iff a < x < b

    ind = billiard_indicator(level_set, [grid.x_axis()], [y])
    k_num = kernel_field_1d(ind, grid)
    k_ana = interval_kernel(grid, a, b)
    assert np.abs(k_num.values - k_ana.values).max() < 1e-6


def test_disk_indicator_geometry():
    R = 1.0
    y_ax = np.linspace(-2.1, 2.1, 85)
    x_ax = np.array([0.0])

    def disk(x1, x2):
        return (x1**2 + x2**2) / R**2

    ind = billiard_indicator(disk, [x_ax, x_ax], [y_ax, y_ax])
    Y1, Y2 = np.meshgrid(y_ax, y_ax, indexing="ij")
    r = np.hypot(Y1, Y2)
    # compare away from the circle itself (samples exactly on it are
    # floating-point coin flips between the two formulations)
    clear = np.abs(r - 2 * R) > 1e-9
    assert np.array_equal(ind.g[0, 0].astype(bool)[clear], (r < 2 * R)[clear])

    # grid holding the center, a point outside, and a point exactly on the
    # boundary: no admissible separation survives at the latter two
    x1 = np.array([0.0, R, 3.0])
    x2 = np.array([0.0])
    mixed = billiard_indicator(disk, [x1, x2], [y_ax, y_ax])
    assert np.all(mixed.g[2, 0] == 0.0)  # outside the disk
    assert np.all(mixed.g[1, 0] == 0.0)  # on the boundary: convexity forbids


def test_empty_interior_raises():
    def nowhere(x):
        return np.full_like(np.asarray(x, dtype=float), 2.0)

    with pytest.raises(EmptyInterior):
        billiard_indicator(nowhere, [np.linspace(-1, 1, 5)],
                           [np.linspace(-1, 1, 5)])


BOX_A1, BOX_B1 = -1.001, 1.001  # jump alignment not required for factorization
BOX_A2, BOX_B2 = -0.7, 0.7
BOX_Y = 0.004 * np.arange(-600, 601)
BOX_X = [np.array([0.1]), np.array([-0.05])]


def box2(x1, x2):
    return np.maximum(np.abs(x1 - 0.5 * (BOX_A1 + BOX_B1)) / (0.5 * (BOX_B1 - BOX_A1)),
                      np.abs(x2 - 0.5 * (BOX_A2 + BOX_B2)) / (0.5 * (BOX_B2 - BOX_A2)))


def test_separable_box_kernel_factorizes():
    a1, b1, a2, b2 = BOX_A1, BOX_B1, BOX_A2, BOX_B2
    y = BOX_Y
    p_ax = np.linspace(-3.0, 3.0, 25)
    x_pts = BOX_X

    ind2 = billiard_indicator(box2, x_pts, [y, y])
    K2 = kernel_from_indicator(ind2, [p_ax, p_ax])

    def box1(lo, hi, xp):
        def level(x):
            return np.abs(x - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        return kernel_from_indicator(
            billiard_indicator(level, [xp], [y]), [p_ax])

    K1a = box1(a1, b1, x_pts[0])
    K1b = box1(a2, b2, x_pts[1])
    outer = K1a[0][:, None] * K1b[0][None, :]
    assert np.abs(K2[0, 0] - outer).max() < 1e-6


def _dense_indicator(B, x_axes, y_axes, subsamples):
    """The full-meshgrid formula: per subcell shift, B on (*n_x, *n_y)
    tensors of x -/+ (y + s dy)/2, boolean products summed, one division."""
    n = len(x_axes)
    xg = np.meshgrid(*x_axes, indexing="ij")
    x_exp = [c[(...,) + (None,) * n] for c in xg]
    out = np.zeros(xg[0].shape + tuple(ax.size for ax in y_axes))
    dys = [float(ax[1] - ax[0]) for ax in y_axes]
    centers = (np.arange(subsamples) + 0.5) / subsamples - 0.5 if subsamples > 1 else [0.0]
    for shift in itertools.product(centers, repeat=n):
        y_mesh = np.meshgrid(*[ax + d * dy for ax, d, dy in zip(y_axes, shift, dys)],
                             indexing="ij")
        y_exp = [c[(None,) * n + (...,)] for c in y_mesh]
        out += ((B(*[xe - 0.5 * ye for xe, ye in zip(x_exp, y_exp)]) < 1.0)
                & (B(*[xe + 0.5 * ye for xe, ye in zip(x_exp, y_exp)]) < 1.0))
    out /= subsamples ** n if subsamples > 1 else 1
    return out


def _disk(x1, x2):
    return x1**2 + x2**2


def _slab(x1, x2):
    return np.abs(x1) / 0.8  # reads x1 only: its result is narrower than the lattice


def _halfline(x):
    return 1.0 - x


_DISK_X = np.linspace(-0.4, 0.4, 3)
_DISK_Y = np.linspace(-2.125, 2.125, 61)
_LINE_X = np.linspace(-1.0, 3.0, 9)
_LINE_Y = np.linspace(-4.0, 4.0, 81)


@pytest.mark.parametrize("B,x_axes,y_axes,subsamples", [
    (_disk, [_DISK_X, _DISK_X], [_DISK_Y, _DISK_Y], 8),
    (box2, BOX_X, [BOX_Y, BOX_Y], 1),
    (_slab, [_DISK_X, np.array([0.0, 0.3])], [_DISK_Y, _DISK_Y[10:-10]], 3),
    (_halfline, [_LINE_X], [_LINE_Y], 1),
    (_halfline, [_LINE_X], [_LINE_Y], 3),
], ids=["disk-s8", "box", "x1-only-s3", "halfline-s1", "halfline-s3"])
def test_billiard_indicator_bit_identical_to_dense(B, x_axes, y_axes, subsamples):
    dense = _dense_indicator(B, x_axes, y_axes, subsamples).view(np.uint64)
    # 8 workers is more threads than cores; the short switch interval
    # interleaves them often, so a slice written by two tasks would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            g = billiard_indicator(B, x_axes, y_axes, subsamples=subsamples,
                                   workers=workers).g
            assert g.shape == dense.shape
            assert np.array_equal(g.view(np.uint64), dense), workers
    finally:
        sys.setswitchinterval(interval)


def test_disk_kernel_center_isotropy_smoke():
    # smaller, faster variant of the acceptance isotropy check
    R = 1.0
    dy = 0.0125
    y = dy * np.arange(-180, 181)
    dp = 0.25
    p_ax = dp * np.arange(-8, 9)

    def disk(x1, x2):
        return (x1**2 + x2**2) / R**2

    ind = billiard_indicator(disk, [np.array([0.0])] * 2, [y, y],
                             subsamples=8)
    K = kernel_from_indicator(ind, [p_ax, p_ax])[0, 0]
    # dihedral symmetry is exact for the sampled geometry
    assert np.abs(K - K.T).max() < 1e-12
    assert np.abs(K - K[::-1, :]).max() < 1e-12
    # radial consistency across a 3-4-5 pair plus Bessel cross-check
    c = len(p_ax) // 2
    k_axis = K[c + 5, c]
    k_diag = K[c + 3, c + 4]
    assert abs(k_axis - k_diag) < 1e-4
    r = 5 * dp
    expect = R * bessel_j1(2 * R * r) / (np.pi * r)
    assert abs(k_axis - expect) < 1e-3


def test_kernel_io_roundtrip(tmp_path):
    grid = PhaseGrid(-2.0, 6.0, 33, -4.0, 4.0, 33)
    k = halfline_kernel(grid)
    csv = tmp_path / "k.csv"
    binp = tmp_path / "k.bin"
    write_kernel_csv(k, csv)
    write_kernel_binary(k, binp)
    w_csv, meta_csv = read_field_csv(csv)
    w_bin, meta_bin = read_field_binary(binp)
    assert meta_csv["provenance"] == "analytic-halfline"
    assert meta_bin["geometry"] == {"wall": 0.0}
    assert np.array_equal(w_bin.values, k.values)
    assert np.abs(w_csv.values - k.values).max() < 1e-11
