import itertools
import threading

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
    boundary_kernels,
    halfline_kernel,
    interval_kernel,
    kernel_field_1d,
    kernel_from_indicator,
    numeric_kernel,
    wigner_transform,
)
from wignerwall.boundary_kernels import _sinc_rows, write_kernel_files
from wignerwall.errors import RECORD
from wignerwall.phase_grid import read_field_binary, read_field_csv

from conftest import lattice_rows
from test_defects import kernel_row_sign

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
    rows = lattice_rows(k, p)
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
    # quadrature of the analytic profile over a wide momentum window
    pq = np.arange(-100.0, 100.0001, 0.01)
    rows = lattice_rows(k, pq)
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
    assert np.array_equal(k.inside, hw != 0.0)  # rows_at leaves the rest out
    for got, want in ((k.values, _sinc_profile(hw, grid.p_axis())),  # +0.0 outside
                      (k.rows_at(karg), _sinc_profile(hw[k.inside], karg))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    assert 0 < k.inside.sum() < len(ref) and not np.any(ref[~k.inside])
    assert np.abs(k.rows_at(p) - ref[k.inside]).max() <= 1e-11 * np.abs(ref).max()
    assert np.abs(k.values - _direct_rows(ind.g, 0.1, _LINE_GRID.p_axis())).max() \
        <= 1e-11 * np.abs(ref).max()


def _sign_flipped(make):
    """The defect matrix's kernel of one inside row's jump weight flipped."""
    def flipped(monkeypatch):
        kernel_row_sign(monkeypatch)
        return make(boundary_kernels)
    return flipped


KERNELS = {
    "halfline": lambda mp: halfline_kernel(KGRID),
    "interval": lambda mp: interval_kernel(PhaseGrid(-2.0, 12.0, 141, -16.0, 16.0, 513),
                                           1.0, 5.0),
    "interval-walls-on-nodes": lambda mp: interval_kernel(
        PhaseGrid(-10.0, 10.0, 101, -8.0, 8.0, 129), -6.0, 6.0),
    "kernel_field_1d": lambda mp: kernel_field_1d(_SUBSAMPLED, _LINE_GRID),
    "halfline-sign-flipped": _sign_flipped(lambda bk: bk.halfline_kernel(KGRID)),
    "interval-sign-flipped": _sign_flipped(lambda bk: bk.interval_kernel(KGRID, 2.0, 9.0)),
}


@pytest.mark.parametrize("make", sorted(KERNELS))
def test_inside_rows_are_the_nonzero_rows(make, monkeypatch):
    # inside holds the rows with a nonzero grid-window sample, and rows_at
    # gives, at those rows, the bits of every row evaluated on the
    # difference lattice
    k = KERNELS[make](monkeypatch)
    assert np.array_equal(k.inside, np.any(k.values != 0.0, axis=1))
    assert 0 < k.inside.sum() < k.grid.n_x and not k.inside.flags.writeable
    karg = k.grid.dp * np.arange(-(k.grid.n_p - 1), k.grid.n_p)
    every_row = _sinc_rows(k.jumps, k.weights, karg)
    assert np.array_equal(k.rows_at(karg).view(np.uint64), every_row[k.inside].view(np.uint64))


def test_values_formed_when_read():
    # no kernel holds its grid-window samples: each read forms them anew,
    # frozen, with the same bits
    k = halfline_kernel(KGRID)
    assert "values" not in vars(k)
    first, second = k.values, k.values
    assert first is not second and not first.flags.writeable
    assert np.array_equal(first.view(np.uint64), second.view(np.uint64))


def test_empty_momentum_axis_gives_empty_kernel():
    # every path returns empty rows for an empty momentum axis; the n-D
    # transform's realness guard reads 0 against a peak of 0 and passes
    empty = np.array([])
    assert numeric_kernel((np.abs(_Y) < 1.0).astype(float), _DY, empty).shape == (0,)
    k = halfline_kernel(KGRID)
    assert k.rows_at(empty).shape == (k.inside.sum(), 0)
    square = ShapeIndicator(2, (np.zeros(1),) * 2, (_Y5, _Y5), np.ones((1, 1, 5, 5)))
    for s, p_axes, shape in ((_SUBSAMPLED, [empty], (9, 0)),
                             (square, [empty, np.linspace(-1.0, 1.0, 3)], (1, 1, 0, 3))):
        token = RECORD.set([])
        try:
            K = kernel_from_indicator(s, p_axes)
            readings = RECORD.get()
        finally:
            RECORD.reset(token)
        assert K.shape == shape
        assert readings == [("realness", 0.0, 0.0)]


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
    # the n-D transform's realness guard does not pass a NaN residue,
    # also when it comes from a later x point than the first
    g2 = np.ones((2, 1, 5, 5))
    g2[1, 0, 2, 1] = g2[1, 0, 2, 3] = np.nan
    y = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(RealnessViolation):
        kernel_from_indicator(ShapeIndicator(2, (np.zeros(2), np.zeros(1)), (y, y), g2),
                              [np.linspace(-1, 1, 3)] * 2)


_Y5 = np.linspace(-1.0, 1.0, 5)
# each path to a kernel row with momentum arguments p
MOMENTUM_CALLS = {
    "rows_at": lambda p: halfline_kernel(KGRID).rows_at(p),
    "numeric_kernel": lambda p: numeric_kernel((np.abs(_Y) < 1.0).astype(float), _DY, p),
    "kernel_from_indicator-1d": lambda p: kernel_from_indicator(_SUBSAMPLED, [p]),
    "kernel_from_indicator-2d": lambda p: kernel_from_indicator(
        ShapeIndicator(2, (np.zeros(1),) * 2, (_Y5, _Y5), np.ones((1, 1, 5, 5))),
        [np.linspace(-1.0, 1.0, 3), p]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(MOMENTUM_CALLS))
def test_non_finite_momentum_rejected(call, bad):
    # every kernel row, window values and the indicator's cell factor
    # included, is evaluated by one helper, which refuses a non-finite
    # momentum argument as bad input (exit 2), not as a guard (exit 3)
    p = np.linspace(-4.0, 4.0, 33)
    MOMENTUM_CALLS[call](p)
    p[5] = bad
    with pytest.raises(BadSampling, match="^momentum arguments must be finite$"):
        MOMENTUM_CALLS[call](p)


def test_kernel_from_indicator_sums_through_the_separation_transform(disk_preset, monkeypatch):
    # each y axis is summed by wigner_transform.fourier_over_separation,
    # looked up when called: doubling it doubles each of the two axes' sums
    ind, p_ax = disk_preset
    K = kernel_from_indicator(ind, [p_ax, p_ax])
    original = wigner_transform.fourier_over_separation
    calls = []

    def doubled(C, K, dy, p, backend="czt"):
        calls.append(backend)
        return 2.0 * original(C, K, dy, p, backend)
    monkeypatch.setattr(wigner_transform, "fourier_over_separation", doubled)
    assert np.array_equal(kernel_from_indicator(ind, [p_ax, p_ax]), 4.0 * K)
    assert calls == ["direct"] * (2 * 9)  # once per axis and x point


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
    tensors of x -/+ (y + s dy)/2, boolean products summed, one division.
    It is taken on the y axes made exactly odd, 0.5 (y - y[::-1]), with
    the exactly odd subcell centres, as ``billiard_indicator`` takes it."""
    n = len(x_axes)
    xg = np.meshgrid(*x_axes, indexing="ij")
    x_exp = [c[(...,) + (None,) * n] for c in xg]
    out = np.zeros(xg[0].shape + tuple(ax.size for ax in y_axes))
    dys = [float(ax[1] - ax[0]) for ax in y_axes]
    y_axes = [0.5 * (ax - ax[::-1]) for ax in y_axes]
    centers = (2 * np.arange(subsamples) + 1 - subsamples) / (2 * subsamples)
    for shift in itertools.product(centers, repeat=n):
        y_mesh = np.meshgrid(*[ax + d * dy for ax, d, dy in zip(y_axes, shift, dys)],
                             indexing="ij")
        y_exp = [c[(None,) * n + (...,)] for c in y_mesh]
        out += ((B(*[xe - 0.5 * ye for xe, ye in zip(x_exp, y_exp)]) < 1.0)
                & (B(*[xe + 0.5 * ye for xe, ye in zip(x_exp, y_exp)]) < 1.0))
    out /= subsamples ** n
    return out


def _disk(x1, x2):
    return x1**2 + x2**2


def _slab(x1, x2):
    return np.abs(x1) / 0.8  # reads x1 only: its result is narrower than the lattice


def _halfline(x):
    return 1.0 - x


def _ball(x1, x2, x3):
    return x1**2 + x2**2 + x3**2


_DISK_X = np.linspace(-0.4, 0.4, 3)
_DISK_Y = np.linspace(-2.125, 2.125, 61)
_LINE_X = np.linspace(-1.0, 3.0, 9)
_LINE_Y = np.linspace(-4.0, 4.0, 81)
_BALL_X = [np.array([0.0, 0.3]), np.array([-0.2]), np.array([0.1, 0.5])]
_BALL_Y = np.linspace(-2.125, 2.125, 21)


_INDICATOR_CASES = pytest.mark.parametrize("B,x_axes,y_axes,subsamples", [
    (_disk, [_DISK_X, _DISK_X], [_DISK_Y, _DISK_Y], 8),
    # x on the nodes where x - y/2 meets the wall; the old centres
    # (j + 1/2) / s - 1/2 are not exactly odd at s = 5, and on the
    # linspace axes their dense sum was not even: 27 cells differed
    (_halfline, [0.5 * _LINE_Y[41:]], [_LINE_Y], 5),
    (box2, BOX_X, [BOX_Y, BOX_Y], 1),
    (_slab, [_DISK_X, np.array([0.0, 0.3])], [_DISK_Y, _DISK_Y[10:-10]], 3),
    (_halfline, [_LINE_X], [_LINE_Y], 1),
    (_halfline, [_LINE_X], [_LINE_Y], 3),
    # one point
    (_disk, [np.array([0.2]), np.array([-0.1])], [_DISK_Y, _DISK_Y], 8),
    (_ball, _BALL_X, [_BALL_Y] * 3, 2),
], ids=["disk-s8", "halfline-walls-on-nodes-s5", "box", "x1-only-s3", "halfline-s1", "halfline-s3",
        "disk-one-point-s8", "ball-s2"])


@_INDICATOR_CASES
def test_billiard_indicator_bit_identical_to_dense(B, x_axes, y_axes, subsamples):
    dense = _dense_indicator(B, x_axes, y_axes, subsamples).view(np.uint64)
    g = billiard_indicator(B, x_axes, y_axes, subsamples=subsamples).g
    assert g.shape == dense.shape
    assert np.array_equal(g.view(np.uint64), dense)


@_INDICATOR_CASES
def test_billiard_indicator_samples_each_subcell_once(B, x_axes, y_axes, subsamples):
    # once on the dense x grid, then twice per x point and subcell shift,
    # B(x - h) and B(x + h) on the y_1 >= 0 half lattice. B(x + h) is the
    # minus factor of subcell -2h, so over a point's calls the minus
    # factor meets every subcell of the whole lattice once, those of the
    # y_1 = 0 row twice. Every call runs on the calling thread
    threads, calls = set(), []

    def counted(*coords):
        threads.add(threading.get_ident())
        calls.append(coords)
        return B(*coords)

    billiard_indicator(counted, x_axes, y_axes, subsamples=subsamples)
    assert threads == {threading.get_ident()}
    n, s = len(x_axes), subsamples
    n_points = int(np.prod([ax.size for ax in x_axes]))
    x_grid, *calls = calls
    assert [c.shape for c in x_grid] == [tuple(ax.size for ax in x_axes)] * n
    assert len(calls) == 2 * n_points * s**n

    dys = [ax[1] - ax[0] for ax in y_axes]
    covered = np.zeros((n_points,) + tuple(s * ax.size for ax in y_axes), dtype=int)
    for minus, plus in zip(calls[::2], calls[1::2]):
        x = [0.5 * np.mean(a + b) for a, b in zip(minus, plus)]
        point = np.ravel_multi_index([int(np.abs(ax - xd).argmin())
                                      for ax, xd in zip(x_axes, x)],
                                     [ax.size for ax in x_axes])
        z = np.broadcast_arrays(*[b - a for a, b in zip(minus, plus)])  # y + shift dy
        for sign in (1.0, -1.0):
            # subcell index k s + j of y_k + ((j + 1/2) / s - 1/2) dy
            cell = tuple(np.rint((sign * zd / dy + ax.size // 2 + 0.5) * s - 0.5).astype(int)
                         for zd, dy, ax in zip(z, dys, y_axes))
            np.add.at(covered[point], cell, 1)
    expected = np.ones_like(covered)
    mid = y_axes[0].size // 2
    expected[:, mid * s:(mid + 1) * s] = 2
    assert np.array_equal(covered, expected)


@pytest.mark.parametrize("subsamples", [0, -3, 2.5, np.float64(2.0), "2", None])
def test_billiard_indicator_rejects_bad_subsamples(subsamples):
    with pytest.raises(BadSampling):
        billiard_indicator(_halfline, [_LINE_X], [_LINE_Y], subsamples=subsamples)


@pytest.mark.parametrize("B,x_axes,y_axes,subsamples", [
    (_disk, [_DISK_X, _DISK_X], [_DISK_Y, _DISK_Y], 8),
    (_disk, [_DISK_X, _DISK_X], [_DISK_Y, _DISK_Y], 3),
    (_halfline, [_LINE_X], [_LINE_Y], 1),
    (_halfline, [_LINE_X], [_LINE_Y], 4),
    (_halfline, [0.5 * _LINE_Y[41:]], [_LINE_Y], 1),
    (_ball, _BALL_X, [_BALL_Y] * 3, 2),
], ids=["disk-s8", "disk-s3", "halfline-s1", "halfline-s4", "halfline-walls-on-nodes",
        "ball-s2"])
def test_billiard_indicator_even_bit_for_bit(B, x_axes, y_axes, subsamples):
    # linspace axes: 32 of 61 and 54 of 81 samples are not the exact
    # negatives of their mirrors, yet g is even in y in every bit, also
    # where x -/+ y/2 is within roundoff of the wall (x = y_k / 2)
    for ax in y_axes:
        assert np.any(ax != -ax[::-1])
    g = billiard_indicator(B, x_axes, y_axes, subsamples=subsamples).g
    n = len(x_axes)
    mirror = g[(Ellipsis,) + (slice(None, None, -1),) * n]
    assert np.array_equal(g.view(np.uint64), mirror.view(np.uint64))


def _whole_array_transform(s, p_axes):
    """The indicator transform over all x points at once: one complex copy
    of g, each y axis contracted with its exponential matrix."""
    out = np.asarray(s.g, dtype=np.complex128)
    nx = s.dimension
    for d, (ax, p) in enumerate(zip(s.y_axes, p_axes)):
        dy = ax[1] - ax[0]
        K = ax.size // 2
        cell = (2.0 * np.pi / dy) * _sinc_rows(np.array([[0.5 * dy]]), np.ones((1, 1)), p)[0]
        sums = np.moveaxis(out, nx + d, -1) @ np.exp(1j * np.outer(dy * np.arange(-K, K + 1), p))
        out = np.moveaxis((dy / (2.0 * np.pi)) * sums * cell, -1, nx + d)
    assert np.abs(out.imag).max() < 1e-10
    return out.real


@pytest.mark.parametrize("case", ["disk-preset", "1-d"])
def test_kernel_from_indicator_points_bit_identical_to_whole_array(case, disk_preset):
    # the transform runs one x point at a time (a 1-D indicator whole)
    if case == "disk-preset":
        ind, p_ax = disk_preset
        p_axes = [p_ax, p_ax]
        assert ind.g.shape == (3, 3, 441, 441)
    else:
        ind, p_axes = _SUBSAMPLED, [np.arange(-60.0, 60.01, 0.08)]
    got = kernel_from_indicator(ind, p_axes)
    ref = _whole_array_transform(ind, p_axes)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


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
    write_kernel_files(k, csv, binp)
    w_csv, meta_csv = read_field_csv(csv)
    w_bin, meta_bin = read_field_binary(binp)
    assert meta_csv["provenance"] == "analytic-halfline"
    assert meta_bin["geometry"] == {"wall": 0.0}
    assert np.array_equal(w_bin.values, k.values)
    assert np.abs(w_csv.values - k.values).max() < 1e-11
