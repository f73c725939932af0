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
from wignerwall import free_evolution
from wignerwall.convolution_engine import BoundedEvolutionPlan
from wignerwall.boundary_kernels import halfline_kernel
from wignerwall.free_evolution import wall_violation_mass
from wignerwall.oracle import images_reflect

from conftest import odd_extended_wave

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


def test_point_mass_displacement():
    values = np.zeros((GRID.n_x, GRID.n_p))
    i, j = 150, 200
    values[i, j] = 1.0
    w = WignerField(GRID, values)
    s = ShearParams(1.5, 1.0)
    out = shear_evolve(w, s, method="fourier", check_support=False)
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
    w = moving_field(p0=1.0)
    a = shear_evolve(shear_evolve(w, ShearParams(0.8, 1.0), method="cubic"),
                     ShearParams(1.2, 1.0), method="cubic")
    b = shear_evolve(w, ShearParams(2.0, 1.0), method="cubic")
    tol = 2 * _cubic_tolerance()
    assert np.abs(a.values - b.values).max() < tol


def _cubic_tolerance():
    # single-shift cubic interpolation error scale for this grid
    w = moving_field(p0=1.0)
    four = shear_evolve(w, ShearParams(1.0, 1.0), method="fourier")
    cub = shear_evolve(w, ShearParams(1.0, 1.0), method="cubic")
    return max(np.abs(four.values - cub.values).max(), 1e-6)


def test_cubic_shear_looks_up_map_coordinates_through_module(monkeypatch):
    # the benchmark tracer wraps free_evolution.map_coordinates; a cubic
    # shear that reached the spline another way would record no span
    calls = []
    original = free_evolution.map_coordinates

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(free_evolution, "map_coordinates", spy)
    w = moving_field()
    shear_evolve(w, ShearParams(1.0, 1.0), method="fourier")
    assert calls == []
    shear_evolve(w, ShearParams(1.0, 1.0), method="cubic")
    assert calls == [1]
    shear_evolve(w, ShearParams(-0.5, 1.0), method="cubic")
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
        out = shear_evolve(w, ShearParams(1e300, 1.0), method="cubic", check_support=False)
    assert np.all(out.values == 0.0) and not np.signbit(out.values).any()


def test_map_coordinates_keeps_a_zero_field_positive_zero():
    out = free_evolution.map_coordinates(np.zeros((9, 5)), np.linspace(-2.0, 2.0, 5) + 0.3)
    assert np.all(out == 0.0) and not np.signbit(out).any()


@pytest.mark.parametrize("n_x", [7, 8, 512, 513])
def test_fourier_shift_rows_bit_identical_to_scipy_fft(n_x):
    # scipy.fft.fft of a real field is its rfft with the conjugate mirror,
    # which numpy.fft.fft of the field cast to complex misses in the last bits
    grid = PhaseGrid(-3.0, 4.0, n_x, -5.0, 5.0, 33)
    rng = np.random.default_rng(n_x)
    values = rng.standard_normal((n_x, grid.n_p))
    shifts = grid.p_axis() * 0.37
    F = sfft.fft(values, axis=0)
    F *= np.exp(-2j * np.pi * np.outer(sfft.fftfreq(n_x, d=grid.dx), shifts))
    ref = np.real(sfft.ifft(F, axis=0))
    out = free_evolution._fourier_shift_rows(values, grid, shifts)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_mass_conserved():
    w = moving_field(p0=1.5)
    for method in ("fourier", "cubic"):
        out = shear_evolve(w, ShearParams(2.0, 1.0), method=method)
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
