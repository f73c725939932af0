import numpy as np
import pytest
import scipy.fft as sfft

from wignerwall import (
    GaussianPacket,
    GridMismatch,
    LengthMismatch,
    PhaseGrid,
    ShearParams,
    ValidationError,
    WignerField,
    billiard_indicator,
    compare_fields,
    convolve_p,
    evolve_bounded,
    far_field_check,
    free_gaussian,
    halfline_kernel,
    interval_kernel,
    kernel_tail_bound,
    marginal_x,
    shear_evolve,
    total_mass,
    wigner_of,
)
from wignerwall.boundary_kernels import kernel_field_1d
from wignerwall.convolution_engine import (
    BoundedEvolutionPlan,
    _batched_fft_convolve,
    point_symmetry_defect,
)
from wignerwall.oracle import images_reflect

from conftest import odd_extended_wave

# even-count grid with p = 0 at index n_p // 2; the momentum window spans
# +-16 so the kernel rows keep their mass budget at the bounce
DP = 32.0 / 512
GRID = PhaseGrid(-24.0, 24.0, 512, -16.0, 16.0 - DP, 512)


def kernel_rows(plan):
    """The plan kernel's rows on the momentum difference lattice."""
    grid = plan.initial.grid
    return plan.kernel.rows_at(grid.dp * np.arange(-(grid.n_p - 1), grid.n_p))


def bounce_plan(x0=10.0, p0=-5.0, sigma=1.0):
    g = GaussianPacket(x0=x0, p0=p0, sigma=sigma, m=1.0)
    w0 = wigner_of(odd_extended_wave(g, GRID), GRID)
    return g, BoundedEvolutionPlan(halfline_kernel(GRID), ShearParams(0.0, 1.0), w0)


@pytest.mark.parametrize("n", [129, 128])
def test_convolve_delta_identity(n):
    rng = np.random.default_rng(n)
    dp = 0.25
    u = rng.normal(size=n)
    delta = np.zeros(2 * n - 1)  # p = 0 at index n - 1 of the difference lattice
    delta[n - 1] = 1.0 / dp
    assert np.abs(convolve_p(u, delta, dp) - u).max() < 1e-12
    with pytest.raises(LengthMismatch):
        convolve_p(u, delta[:n], dp)  # a row on the field's own axis is rejected


def test_convolve_boxes_make_triangle():
    # two unit-mass boxes convolve to a unit-mass triangle; the direct
    # O(n^2) sum is the oracle
    n, dp = 201, 0.1
    z0 = (n - 1) // 2
    u = np.zeros(n)
    v = np.zeros(2 * n - 1)  # difference lattice, p = 0 at index n - 1
    u[z0 - 10:z0 + 11] = 1.0 / (21 * dp)
    v[n - 6:n + 5] = 1.0 / (11 * dp)
    out = convolve_p(u, v, dp)
    oracle = np.zeros(n)
    for j in range(n):
        s = 0.0
        for l in range(n):
            s += u[l] * v[j - l + n - 1]
        oracle[j] = s * dp
    assert np.abs(out - oracle).max() < 1e-12
    assert abs(out.sum() * dp - 1.0) < 1e-9
    # trapezoid profile: the plateau is centered on z0
    assert out[z0] == out.max()


def test_convolve_difference_lattice_row():
    rng = np.random.default_rng(6)
    n, dp = 100, 0.2
    u = rng.normal(size=n)
    vd = rng.normal(size=2 * n - 1)
    out = convolve_p(u, vd, dp)
    oracle = dp * np.convolve(u, vd)[n - 1:2 * n - 1]
    assert np.array_equal(out, oracle)
    with pytest.raises(LengthMismatch):
        convolve_p(u, vd[:-1], dp)


def test_backends_agree():
    # the engine's FFT path against the direct per-row reference convolve_p
    _, plan = bounce_plan()
    wf = evolve_bounded(plan, 2.0)
    sheared = shear_evolve(plan.initial, ShearParams(2.0, 1.0))
    rows = kernel_rows(plan)
    wd = np.stack([convolve_p(sheared.values[i], rows[i], GRID.dp)
                   for i in range(GRID.n_x)])
    wd[~plan.kernel.inside_rows(), :] = 0.0
    assert np.abs(wf.values - wd).max() < 1e-9


def box_plan(a=-6.0, b=4.0):
    # any field serves: the engine's row work does not depend on where W0
    # came from, and the support guard is off as on the CLI's box path
    g = GaussianPacket(x0=-1.0, p0=3.0, sigma=0.7, m=1.0)
    w0 = wigner_of(free_gaussian(g, 0.0, GRID.x_min, GRID.dx, GRID.n_x), GRID)
    return BoundedEvolutionPlan(interval_kernel(GRID, a, b), ShearParams(0.0, 1.0),
                                w0, check_support=False)


def two_interval_plan():
    # numeric kernel of (-5, -2) U (1.5, 4.5): its inside rows form three
    # runs, the middle one of x whose +-y/2 pairs straddle the gap
    dp = 16.0 / 128
    grid = PhaseGrid(-6.0, 6.0, 97, -8.0, 8.0 - dp, 128)
    y = 0.05 * np.arange(-240, 241)

    def level(x):
        return np.minimum(np.abs(x + 3.5), np.abs(x - 3.0)) / 1.5

    kernel = kernel_field_1d(billiard_indicator(level, [grid.x_axis()], [y]), grid)
    g = GaussianPacket(x0=3.0, p0=1.0, sigma=0.4, m=1.0)
    w0 = wigner_of(free_gaussian(g, 0.0, grid.x_min, grid.dx, grid.n_x), grid)
    return BoundedEvolutionPlan(kernel, ShearParams(0.0, 1.0), w0, check_support=False)


@pytest.mark.parametrize("geometry", ["halfline", "box", "two-interval"])
def test_inside_rows_convolution_bit_identical(geometry):
    # convolving only the inside rows gives the bits of convolving every
    # row and then zeroing the outside ones
    plan = {"halfline": lambda: bounce_plan()[1], "box": box_plan,
            "two-interval": two_interval_plan}[geometry]()
    grid = plan.initial.grid
    inside = plan.kernel.inside_rows()
    assert 0 < inside.sum() < grid.n_x
    for t in (0.0, 1.3):
        sheared = shear_evolve(plan.initial, ShearParams(t, 1.0),
                               check_support=plan.check_support)
        ref = _batched_fft_convolve(sheared.values, kernel_rows(plan), grid.dp,
                                    grid.n_p - 1)
        ref[~inside, :] = 0.0
        out = evolve_bounded(plan, t).values
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("n", [128, 129, 513])
def test_batched_convolution_bit_identical_to_scipy_fft(n):
    # numpy.fft's rfft/irfft at the same padded length give scipy.fft's bits
    rng = np.random.default_rng(n)
    rows_w = rng.standard_normal((9, n))
    rows_k = rng.standard_normal((9, 2 * n - 1))
    L = sfft.next_fast_len(3 * n - 2)
    full = sfft.irfft(sfft.rfft(rows_w, L, axis=1) * sfft.rfft(rows_k, L, axis=1),
                      L, axis=1)
    ref = 0.125 * full[:, n - 1:2 * n - 1]
    out = _batched_fft_convolve(rows_w, rows_k, 0.125, n - 1)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_linearity_in_initial_field():
    g1 = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    g2 = GaussianPacket(x0=6.0, p0=-2.0, sigma=0.8, m=1.0)
    k = halfline_kernel(GRID)
    w1 = wigner_of(odd_extended_wave(g1, GRID), GRID)
    w2 = wigner_of(odd_extended_wave(g2, GRID), GRID)
    a, b = 0.6, -1.3
    combo = WignerField(GRID, a * w1.values + b * w2.values)
    s = ShearParams(0.0, 1.0)
    t = 1.0
    out_combo = evolve_bounded(BoundedEvolutionPlan(k, s, combo), t)
    out_1 = evolve_bounded(BoundedEvolutionPlan(k, s, w1), t)
    out_2 = evolve_bounded(BoundedEvolutionPlan(k, s, w2), t)
    lin = a * out_1.values + b * out_2.values
    assert np.abs(out_combo.values - lin).max() < 1e-12


def test_support_is_exactly_zero_outside():
    _, plan = bounce_plan()
    for t in (0.0, 1.7, 3.0):
        w = evolve_bounded(plan, t)
        outside = GRID.x_axis() <= 0.0
        assert np.all(w.values[outside, :] == 0.0)


def test_plan_rejects_asymmetric_initial():
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    psi = free_gaussian(g, 0.0, GRID.x_min, GRID.dx, GRID.n_x)
    w_single = wigner_of(psi, GRID)  # no image partner: not point symmetric
    assert point_symmetry_defect(w_single) > 1e-3
    with pytest.raises(ValidationError):
        BoundedEvolutionPlan(halfline_kernel(GRID), ShearParams(0.0, 1.0), w_single)


def test_plan_rejects_grid_mismatch():
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    w0 = wigner_of(odd_extended_wave(g, GRID), GRID)
    other = PhaseGrid(-24.0, 24.0, 256, -12.0, 12.0 - DP, 512)
    with pytest.raises(GridMismatch):
        BoundedEvolutionPlan(halfline_kernel(other), ShearParams(0.0, 1.0), w0)


def test_plan_rejects_kernel_reach_beyond_band():
    # 2 max|x| = 48 against pi/dp = 12.6: kernel rows alias on this p axis
    coarse = PhaseGrid(-24.0, 24.0, 512, -16.0, 16.0, 129)
    assert 2.0 * 24.0 * coarse.dp >= np.pi
    w0 = WignerField(coarse, np.zeros((coarse.n_x, coarse.n_p)))
    with pytest.raises(ValidationError, match="pi/dp"):
        BoundedEvolutionPlan(halfline_kernel(coarse), ShearParams(0.0, 1.0), w0)


def test_evolution_tracks_images_oracle_small():
    g, plan = bounce_plan()
    q = 8  # the oracle transform must be finer than the method's grid
    dxf = GRID.dx / q
    nf = (GRID.n_x - 1) * q + 1
    for t in (0.0, 2.0):
        w = evolve_bounded(plan, t)
        psi = images_reflect(g, t, GRID.x_min, dxf, nf)
        ref = wigner_of(psi, GRID)
        assert compare_fields(w, ref).l2_rel < 1e-3


def test_far_field_at_probes():
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    w0 = wigner_of(odd_extended_wave(g, GRID), GRID)
    scale = np.abs(w0.values).max()
    assert far_field_check(w0, 10.0) < 1e-4 * scale


def test_far_field_wall_row_is_trivial():
    # the physical state has a node at the wall and no amplitude near it,
    # so at x -> 0+ the bounded row and the free row are both about zero
    # (the free field of the odd EXTENSION would instead carry its
    # interference fringe at x = 0, which is exactly what the kernel kills)
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    psi_phys = images_reflect(g, 0.0, GRID.x_min, GRID.dx, GRID.n_x)
    w_phys = wigner_of(psi_phys, GRID)
    assert far_field_check(w_phys, GRID.dx / 2) < 1e-6


def test_far_field_decreases_with_distance():
    # probes at 5, 10, 20 state widths; sigma = 0.8 keeps the farthest
    # packet and its image clear of the grid edges
    sigma = 0.8
    devs = []
    for probe in (5 * sigma, 10 * sigma, 20 * sigma):
        g = GaussianPacket(x0=probe, p0=-5.0, sigma=sigma, m=1.0)
        w0 = wigner_of(odd_extended_wave(g, GRID), GRID)
        devs.append(far_field_check(w0, probe))
    floor = 1e-12
    assert devs[1] < devs[0]
    assert devs[2] <= devs[1] + floor


def test_mass_and_marginal_sanity():
    _, plan = bounce_plan()
    for t in (0.0, 2.0, 4.0):
        w = evolve_bounded(plan, t)
        assert abs(total_mass(w) - 1.0) < 2e-3
        assert marginal_x(w).min() > -1e-3


def test_kernel_tail_bound_scale():
    g, plan = bounce_plan()
    bound = kernel_tail_bound(plan.kernel, plan.initial)
    assert 0.0 <= bound < 0.05
