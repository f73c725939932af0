import contextlib
import warnings

import numpy as np
import pytest
import scipy.fft as sfft

from wignerwall import (
    GaussianPacket,
    PhaseGrid,
    ShearParams,
    SupportEscaped,
    ValidationError,
    WignerField,
    evolve_bounded,
    free_gaussian,
    marginal_p,
    marginal_x,
    naive_bounded_evolve,
    shear_evolve,
    total_mass,
    wigner_of,
)
from wignerwall import cli, free_evolution
from wignerwall.cli import load_config
from wignerwall.convolution_engine import BoundedEvolutionPlan
from wignerwall.boundary_kernels import halfline_kernel
from wignerwall.free_evolution import wall_violation_mass
from wignerwall.oracle import images_reflect

from conftest import odd_extended_wave
from test_guards import record  # noqa: F401 -- the open guard record fixture
from test_row_blocks import same_bits

GRID = PhaseGrid(-20.0, 20.0, 401, -8.0, 8.0, 257)


def moving_field(x0=0.0, p0=2.0, sigma=1.0):
    g = GaussianPacket(x0=x0, p0=p0, sigma=sigma, m=1.0)
    psi = free_gaussian(g, 0.0, GRID.x_min, GRID.dx, GRID.n_x)
    return wigner_of(psi, GRID)


def centroid(w):
    mx, mp = marginal_x(w), marginal_p(w)
    g = w.grid
    return (float(np.sum(g.x_axis() * mx) * g.dx),
            float(np.sum(g.p_axis() * mp) * g.dp))


def test_zero_time_is_bit_equal():
    w = moving_field()
    out = shear_evolve(w, ShearParams(0.0, 1.0))
    assert np.array_equal(out.values, w.values)


def test_gaussian_centroid_moves():
    w = moving_field(x0=0.0, p0=2.0)
    out = shear_evolve(w, ShearParams(3.0, 1.0))
    cx, cp = centroid(out)
    assert abs(cx - 6.0) <= GRID.dx
    assert abs(cp - 2.0) <= GRID.dp


def _row_shifts(grid, t):
    # the shear's shifts in rows at m = 1, as _fourier_shift_rows and
    # map_coordinates take them
    return grid.p_axis() * t / grid.dx


def test_point_mass_displacement():
    values = np.zeros((GRID.n_x, GRID.n_p))
    i, j = 150, 200
    values[i, j] = 1.0
    w = WignerField(GRID, values)
    s = ShearParams(1.5, 1.0)
    out = WignerField(GRID, free_evolution._fourier_shift_rows(values, _row_shifts(GRID, s.t)))
    ii = np.argmax(marginal_x(out))
    target = GRID.x_at(i) + GRID.p_axis()[j] * s.t / s.m
    assert abs(GRID.x_at(ii) - target) <= GRID.dx
    assert abs(total_mass(out) - total_mass(w)) < 1e-9


def test_group_property_fourier():
    w = moving_field(p0=1.0)
    a = shear_evolve(shear_evolve(w, ShearParams(0.8, 1.0)), ShearParams(1.2, 1.0))
    b = shear_evolve(w, ShearParams(2.0, 1.0))
    assert np.abs(a.values - b.values).max() < 1e-10


def test_time_reversal_fourier():
    w = moving_field(p0=1.0)
    back = shear_evolve(shear_evolve(w, ShearParams(1.7, 1.0)), ShearParams(-1.7, 1.0))
    assert np.abs(back.values - w.values).max() < 1e-10


def test_group_property_cubic():
    v = moving_field(p0=1.0).values
    cubic = free_evolution.map_coordinates
    a = cubic(cubic(v, _row_shifts(GRID, 0.8)), _row_shifts(GRID, 1.2))
    b = cubic(v, _row_shifts(GRID, 2.0))
    tol = 2 * _cubic_tolerance()
    assert np.abs(a - b).max() < tol


def _cubic_tolerance():
    # single-shift cubic interpolation error scale for this grid
    v = moving_field(p0=1.0).values
    four = free_evolution._fourier_shift_rows(v, _row_shifts(GRID, 1.0))
    cub = free_evolution.map_coordinates(v, _row_shifts(GRID, 1.0))
    return max(np.abs(four - cub).max(), 1e-6)


def test_cubic_shear_looks_up_map_coordinates_through_module(monkeypatch):
    # the benchmark tracer wraps free_evolution.map_coordinates; a cubic
    # shear that reached the spline another way would record no span
    calls = []
    original = free_evolution.map_coordinates

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(free_evolution, "map_coordinates", spy)
    # edge-decayed: the spectral shift, no spline call
    shear_evolve(moving_field(), ShearParams(1.0, 1.0))
    assert calls == []
    # the packet rolled onto the x edges is not safe to wrap: the spline
    w = WignerField(GRID, np.roll(moving_field().values, GRID.n_x // 2, axis=0))
    shear_evolve(w, ShearParams(1.0, 1.0), check_support=False)
    assert calls == [1]
    shear_evolve(w, ShearParams(-0.5, 1.0), check_support=False)
    assert calls == [1, 1]


def _scipy_cubic_shift(values, shifts):
    # the reference: column j sampled at row i - shifts[j]
    from scipy import ndimage
    rows = np.arange(values.shape[0], dtype=np.float64)[:, None] - shifts[None, :]
    cols = np.broadcast_to(np.arange(values.shape[1], dtype=np.float64), rows.shape)
    return ndimage.map_coordinates(values, [rows, cols], order=3, mode="constant", cval=0.0)


def _assert_matches_scipy(values, shifts):
    ref = _scipy_cubic_shift(values, shifts)
    out = free_evolution.map_coordinates(values, shifts)
    assert out.shape == values.shape
    assert np.abs(out - ref).max() <= 2e-15 * np.abs(values).max()
    # outside [0, n_x - 1] both are exactly +0.0
    c = np.arange(values.shape[0])[:, None] - shifts[None, :]
    outside = (c < 0) | (c > values.shape[0] - 1)
    assert np.all(ref[outside] == 0.0) and np.all(out[outside] == 0.0)
    assert not np.signbit(out[outside]).any()


# in rows; every shift is a multiple of 1/8, so the coordinate i - s that
# scipy is handed is exact, as the NumPy spline's per-column offset is
_SHIFTS = {
    "integer": lambda n, k: np.arange(k) - k // 2.0,
    "fractional": lambda n, k: (np.arange(k) - k // 2) * 0.375 + 0.125,
    "negative": lambda n, k: -0.625 - 0.25 * np.arange(k),
    "beyond": lambda n, k: (np.arange(k) - k // 2) * (n + 3.0) / 2.0 + 0.5,
}


@pytest.mark.parametrize("kind", sorted(_SHIFTS))
@pytest.mark.parametrize("n_x", [2, 3, 7, 8, 521])
def test_map_coordinates_matches_scipy(n_x, kind):
    rng = np.random.default_rng(n_x)
    values = rng.standard_normal((n_x, 17))
    _assert_matches_scipy(values, _SHIFTS[kind](n_x, 17))


@pytest.mark.parametrize("n_x", [2, 3, 7, 8, 521])
def test_map_coordinates_lands_on_the_grid_ends(n_x):
    # column 0 keeps rows 0 and n_x - 1 on coordinates 0 and n_x - 1;
    # column 1 moves row 0 onto n_x - 1, column 2 moves row n_x - 1 onto 0
    rng = np.random.default_rng(n_x)
    values = rng.standard_normal((n_x, 3))
    shifts = np.array([0.0, 1.0 - n_x, n_x - 1.0])
    _assert_matches_scipy(values, shifts)
    out = free_evolution.map_coordinates(values, shifts)
    tol = 2e-15 * np.abs(values).max()
    assert np.abs(out[:, 0] - values[:, 0]).max() <= tol
    assert abs(out[0, 1] - values[-1, 1]) <= tol and np.all(out[1:, 1] == 0.0)
    assert abs(out[-1, 2] - values[0, 2]) <= tol and np.all(out[:-1, 2] == 0.0)


def test_map_coordinates_matches_scipy_on_a_smooth_field():
    # generic shifts: scipy rounds i - s to the grid's ulp near row 520
    # (about 6e-14 rows), the per-column offset does not; on a field that
    # is smooth on the grid, as the sheared Wigner fields are, the two agree
    grid = PhaseGrid(-26.0, 26.0, 521, -8.0, 8.0, 65)
    g = GaussianPacket(x0=-3.0, p0=2.0, sigma=1.5, m=1.0)
    w = wigner_of(free_gaussian(g, 0.0, grid.x_min, grid.dx, grid.n_x), grid)
    shifts = grid.p_axis() * (1.37 / grid.dx)
    _assert_matches_scipy(w.values, shifts)


def test_map_coordinates_huge_shift_is_all_positive_zero():
    values = np.random.default_rng(0).standard_normal((521, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e300, -1e300, 1.7e308):
            out = free_evolution.map_coordinates(values, np.full(9, s))
            assert np.all(out == 0.0) and not np.signbit(out).any()
        # through the shear: a grid without p = 0, so every row leaves
        grid = PhaseGrid(-20.0, 20.0, 401, -8.0, 8.0, 256)
        w = WignerField(grid, np.ones((401, 256)))
        out = shear_evolve(w, ShearParams(1e300, 1.0), check_support=False)  # edge-heavy: cubic
    assert np.all(out.values == 0.0) and not np.signbit(out.values).any()


def test_map_coordinates_keeps_a_zero_field_positive_zero():
    out = free_evolution.map_coordinates(np.zeros((9, 5)), np.linspace(-2.0, 2.0, 5) + 0.3)
    assert np.all(out == 0.0) and not np.signbit(out).any()


@pytest.mark.parametrize("n_x", [7, 8, 512, 513])
def test_fourier_shift_rows_bit_identical_to_scipy_fft(n_x):
    # numpy.fft's rfft/irfft give scipy.fft's bits
    grid = PhaseGrid(-3.0, 4.0, n_x, -5.0, 5.0, 33)
    values = np.random.default_rng(n_x).standard_normal((n_x, grid.n_p))
    shifts = _row_shifts(grid, 0.37)
    R = sfft.rfft(values, axis=0)
    R *= np.exp(-2j * np.pi * np.outer(sfft.rfftfreq(n_x), shifts))
    ref = sfft.irfft(R, n_x, axis=0)
    out = free_evolution._fourier_shift_rows(values, shifts)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("t", [0.37, 1.5, 3.0])
@pytest.mark.parametrize("n_x", [401, 512, 513])
def test_fourier_shift_rows_matches_the_full_spectrum(n_x, t):
    # the former shear: the rfft with its conjugate mirror appended (the
    # full spectrum), shifted along x by p t / m with the frequencies in
    # 1/x. On the edge-decayed fields the spectral path takes, the phase
    # rounding of the two forms moves them by under 1e-15 of the peak (on
    # white noise, whose top frequencies carry full weight, by about 2e-14)
    grid = PhaseGrid(-20.0, 20.0, n_x, -8.0, 8.0, 257)
    g = GaussianPacket(x0=-3.0, p0=1.0, sigma=1.0, m=1.0)
    values = wigner_of(free_gaussian(g, 0.0, grid.x_min, grid.dx, n_x), grid).values
    R = np.fft.rfft(values, axis=0)
    F = np.concatenate((R, np.conj(R[(n_x - 1) // 2:0:-1])))
    F *= np.exp(-2j * np.pi * np.outer(np.fft.fftfreq(n_x, d=grid.dx), grid.p_axis() * t))
    ref = np.real(np.fft.ifft(F, axis=0))
    out = free_evolution._fourier_shift_rows(values, _row_shifts(grid, t))
    assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


def test_mass_conserved():
    w = moving_field(p0=1.5)
    shifts = _row_shifts(GRID, 2.0)
    for shift_rows in (free_evolution._fourier_shift_rows, free_evolution.map_coordinates):
        out = WignerField(GRID, shift_rows(w.values, shifts))
        assert abs(total_mass(out) - total_mass(w)) < 1e-4


def test_marginal_p_invariant():
    w = moving_field(p0=1.0)
    out = shear_evolve(w, ShearParams(2.5, 1.0))
    assert np.abs(marginal_p(out) - marginal_p(w)).max() < 1e-6


def test_support_escape_guard():
    w = moving_field(x0=10.0, p0=3.0)
    with pytest.raises(SupportEscaped):
        shear_evolve(w, ShearParams(4.0, 1.0))


def test_negative_time_allowed():
    w = moving_field(p0=1.0)
    out = shear_evolve(w, ShearParams(-2.0, 1.0))
    cx, _ = centroid(out)
    assert abs(cx - (-2.0)) <= GRID.dx


def _halfline_setup(p0):
    g = GaussianPacket(x0=10.0, p0=p0, sigma=1.0, m=1.0)
    psi_phys = images_reflect(g, 0.0, GRID.x_min, GRID.dx, GRID.n_x)
    w_phys = wigner_of(psi_phys, GRID)
    return g, w_phys


def test_naive_zero_time_is_wall_mask():
    _, w_phys = _halfline_setup(-5.0)
    out = naive_bounded_evolve(w_phys, ShearParams(0.0, 1.0))
    mask = GRID.x_axis()[:, None] > 0.0
    assert np.array_equal(out.values, w_phys.values * mask)


def test_naive_leaks_past_wall_but_convolution_does_not():
    g, w_phys = _halfline_setup(-5.0)
    t = 2.0  # packet from x0 = 10 at speed 5 reaches the wall
    naive = naive_bounded_evolve(w_phys, ShearParams(t, 1.0))
    assert wall_violation_mass(naive) > 1e-3

    w0 = wigner_of(odd_extended_wave(g, GRID), GRID)
    plan = BoundedEvolutionPlan(halfline_kernel(GRID), ShearParams(0.0, 1.0), w0)
    conv = evolve_bounded(plan, t)
    assert wall_violation_mass(conv) == 0.0


def test_naive_rejects_leaky_initial_field():
    w = moving_field(x0=0.0, p0=1.0)  # centered packet straddles the wall
    with pytest.raises(ValidationError):
        naive_bounded_evolve(w, ShearParams(1.0, 1.0))


# The row-range shear: the rows asked for, as a read-only array, bit for
# bit the whole shear's rows. The preset frames take both paths, spectral
# on the half line (t = 1 ... 4) and cubic in the box (every time, t = 0
# included); the spans are the kernel's inside rows, the whole axis, two
# rows at either end and one row in the middle.
def _spans(n, inside):
    return [slice(inside[0], inside[-1] + 1), slice(0, n), slice(0, 2), slice(n - 2, n),
            slice(n // 2, n // 2 + 1)]


@pytest.mark.parametrize("preset, times", [("halfline-bounce", [1.0, 2.0, 3.0, 4.0]),
                                           ("box-traversal", None)])
def test_row_range_shear_is_the_whole_shears_rows(preset, times, monkeypatch):
    cfg = load_config(None, preset)
    plan = cli.build_plan(cfg)
    w0, spans = plan.initial, _spans(cfg.grid.n_x, np.flatnonzero(plan.kernel.inside))
    # the half line's W0 is edge-decayed (spectral), the box's image train is not
    assert (w0.edge_mass <= 1e-6 * w0.abs_mass) == (preset == "halfline-bounce")
    gathered, original = [], free_evolution.map_coordinates

    def counting(v, shifts, rows=slice(None), masses=None):
        gathered.append(len(range(len(v))[rows if masses is None else slice(None)]))
        return original(v, shifts, rows, masses)
    monkeypatch.setattr(free_evolution, "map_coordinates", counting)
    for t in times or cfg.times:
        s = ShearParams(t, plan.shear.m)
        whole = shear_evolve(w0, s, check_support=plan.check_support)
        for rows in spans:
            part = shear_evolve(w0, s, check_support=plan.check_support, rows=rows)
            assert not part.flags.writeable and same_bits(part, whole.values[rows])
    # the spline gathers the rows asked for only: the whole axis once per
    # time, then each span's rows
    moving = len([t for t in times or cfg.times if t != 0.0])
    assert gathered == ([] if times else moving * ([cfg.grid.n_x] + [
        len(range(cfg.grid.n_x)[rows]) for rows in spans]))


def test_row_range_guard_reading_is_the_whole_fields_masses(record):
    # the spectral path sums the guard's masses over whole columns, a block
    # at a time, as the field sums its own: the reading and the limit are
    # the whole field's edge_mass and 1e-4 abs_mass bit for bit; by t = 7
    # and t = -3 the packet and its image have left the grid
    cfg = load_config(None, "halfline-bounce")
    w0, n = cli.build_plan(cfg).initial, cfg.grid.n_x
    for t in (0.5, 1.0, 2.0, 4.0, 7.0, -3.0):
        whole = shear_evolve(w0, ShearParams(t, 1.0), check_support=False)
        fires = whole.edge_mass >= 1e-4 * whole.abs_mass
        assert fires == (t in (7.0, -3.0))
        for rows in (slice(257, n), slice(0, 2), slice(n - 2, n), slice(5, 6)):
            del record[:]
            with pytest.raises(SupportEscaped) if fires else contextlib.nullcontext():
                shear_evolve(w0, ShearParams(t, 1.0), rows=rows)
            [(name, reading, limit)] = record
            assert name == "shear_edge_mass"
            assert (reading, limit) == (whole.edge_mass, 1e-4 * whole.abs_mass)


def test_cubic_row_range_with_the_guard_on(record):
    # a cubic field under the support guard (edge mass 1e-5 of its mass,
    # on its first and last rows): the spline gathers every row for the
    # guard's masses, so the guard reads the whole field's masses bit for
    # bit on any row range, and fires as it does
    w = moving_field()
    v = w.values.copy()
    v[[0, -1]] = 1e-5 * w.abs_mass / (2 * GRID.n_p * GRID.dx * GRID.dp)
    rim = WignerField(GRID, v)
    assert 1e-6 * rim.abs_mass < rim.edge_mass
    whole = shear_evolve(rim, ShearParams(1.0, 1.0))
    for rows in _spans(GRID.n_x, [150, 250]):
        del record[:]
        part = shear_evolve(rim, ShearParams(1.0, 1.0), rows=rows)
        assert same_bits(part, whole.values[rows])
        assert record == [("shear_edge_mass", whole.edge_mass, 1e-4 * whole.abs_mass)]
    with pytest.raises(SupportEscaped):
        shear_evolve(rim, ShearParams(12.0, 1.0))  # the packet leaves the grid
    with pytest.raises(SupportEscaped):
        shear_evolve(rim, ShearParams(12.0, 1.0), rows=slice(0, 2))
