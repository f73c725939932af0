import math

import numpy as np
import pytest

from wignerwall import (
    BoxSpectrum,
    GaussianPacket,
    GridMismatch,
    PhaseGrid,
    SupportEscaped,
    TruncationTooSevere,
    ValidationError,
    WignerField,
    box_evolve,
    cli,
    compare_fields,
    evolve_bounded,
    free_gaussian,
    images_reflect,
    project_gaussian_to_box,
    wigner_of,
)
from wignerwall.cli import load_config
from wignerwall.oracle import FieldComparison, require_in_window, require_inside


AXIS = dict(x_min=-30.0, dx=0.02, n=3001)


def quad_moment(psi, power=1):
    x = psi.x_axis()
    return float(np.trapezoid(x**power * np.abs(psi.samples) ** 2, x))


def split_step_reference(g: GaussianPacket, t: float, x_min, dx, n, steps=400):
    """Independent free propagation: spectral kinetic phases on a fine grid."""
    x = x_min + dx * np.arange(n)
    psi = g.amplitude(x, 0.0)
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    dt = t / steps
    phase = np.exp(-1j * k**2 / (2 * g.m) * dt)
    f = np.fft.fft(psi)
    for _ in range(steps):
        f *= phase
    return np.fft.ifft(f)


def test_free_gaussian_peak():
    g = GaussianPacket(0.0, 0.0, 1.5, 1.0)
    psi = free_gaussian(g, 0.0, **AXIS)
    peak = np.abs(psi.samples[np.argmin(np.abs(psi.x_axis()))]) ** 2
    assert abs(peak - 1 / (1.5 * np.sqrt(2 * np.pi))) < 1e-9


def test_free_gaussian_centroid_ehrenfest():
    g = GaussianPacket(x0=-3.0, p0=2.0, sigma=1.0, m=2.0)
    for t in (0.0, 1.0, 3.0):
        psi = free_gaussian(g, t, **AXIS)
        assert abs(quad_moment(psi) - (g.x0 + g.p0 * t / g.m)) < 1e-6


def test_free_gaussian_width_against_split_step():
    g = GaussianPacket(x0=0.0, p0=0.0, sigma=1.0, m=1.0)
    t = 2.0 * g.m * g.sigma**2  # width doubles in variance here
    psi = free_gaussian(g, t, **AXIS)
    var = quad_moment(psi, 2) - quad_moment(psi) ** 2
    assert abs(var - 2.0 * g.sigma**2) < 1e-6
    ref = split_step_reference(g, t, **AXIS)
    assert np.abs(psi.samples - ref).max() < 1e-7


def test_free_gaussian_unitarity():
    g = GaussianPacket(x0=1.0, p0=-1.5, sigma=0.8, m=1.0)
    for t in (0.0, 0.7, 2.3, 5.0):
        assert abs(free_gaussian(g, t, **AXIS).norm_sq() - 1.0) < 1e-9


def test_free_gaussian_escape_guard():
    g = GaussianPacket(x0=0.0, p0=5.0, sigma=1.0, m=1.0)
    with pytest.raises(SupportEscaped):
        free_gaussian(g, 20.0, x_min=-15.0, dx=0.05, n=601)


def test_images_reflect_node_and_support():
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    for t in (0.0, 1.0, 2.0, 3.0):
        psi = images_reflect(g, t, **AXIS)
        x = psi.x_axis()
        assert np.all(psi.samples[x <= 0] == 0.0)
        i0 = int(np.argmin(np.abs(x)))
        assert psi.samples[i0] == 0.0
        assert abs(psi.norm_sq() - 1.0) < 1e-6  # through the bounce


def test_images_far_from_wall_matches_free():
    g = GaussianPacket(x0=10.0, p0=-5.0, sigma=1.0, m=1.0)
    psi = images_reflect(g, 0.0, **AXIS)
    free = free_gaussian(g, 0.0, **AXIS)
    x = psi.x_axis()
    pos = x > 0
    assert np.abs(psi.samples[pos] - free.samples[pos]).max() < 1e-8


def test_images_antisymmetry_of_difference():
    g = GaussianPacket(x0=8.0, p0=-3.0, sigma=1.0, m=1.0)
    x = np.linspace(-20, 20, 2001)
    diff = g.amplitude(x, 1.3) - g.amplitude(-x, 1.3)
    assert np.abs(diff + diff[::-1]).max() < 1e-14


def test_images_wall_overlap_guard():
    g = GaussianPacket(x0=0.5, p0=0.0, sigma=1.0, m=1.0)
    with pytest.raises(SupportEscaped):
        images_reflect(g, 0.0, **AXIS)


@pytest.mark.parametrize("fields", [
    (np.nan, 0.0, 1.0, 1.0), (5.0, 0.0, np.nan, 1.0), (np.inf, 0.0, 1.0, 1.0),
    (5.0, -np.inf, 1.0, 1.0), (5.0, 0.0, np.inf, 1.0), (5.0, 0.0, 1.0, np.nan),
], ids=["x0-nan", "sigma-nan", "x0-inf", "p0-minus-inf", "sigma-inf", "m-nan"])
def test_packet_rejects_non_finite_fields(fields):
    # a non-finite field is refused where the packet is built, before any
    # check reads it
    with pytest.raises(ValidationError):
        GaussianPacket(*fields)


def test_require_inside_refuses_nan_region():
    # a NaN end makes the mass outside NaN; NaN > 1e-8 is false, so the
    # region check once returned silently
    with pytest.raises(SupportEscaped) as info:
        require_inside(GaussianPacket(5.0, 0.0, 1.0, 1.0), np.nan, 1.0)
    assert str(info.value) == "nan of the packet's mass lies outside the region (nan, 1) at t = 0"


def test_box_spectrum_refuses_nan_norm():
    # abs(nan - 1) >= 1e-9 is false, so the norm check once accepted a NaN
    with pytest.raises(ValidationError) as info:
        BoxSpectrum(0.0, 10.0, 1.0, [np.nan, 0.0])
    assert str(info.value) == "coefficient norm^2 = nan, not 1 within 1e-9"


def test_box_single_mode_stationary_density():
    c = np.zeros(8)
    c[2] = 1.0
    s = BoxSpectrum(0.0, 10.0, 1.0, c)
    base = np.abs(box_evolve(s, 0.0, -1.0, 0.01, 1201).samples) ** 2
    for t in (0.9, 4.4):
        now = np.abs(box_evolve(s, t, -1.0, 0.01, 1201).samples) ** 2
        assert np.abs(now - base).max() < 1e-12


def test_box_revival():
    g = GaussianPacket(x0=5.0, p0=4.0, sigma=0.6, m=1.0)
    s = project_gaussian_to_box(g, 0.0, 10.0, 64)
    T = s.revival_time()
    # |<psi(0)|psi(T)>| from the spectrum alone (the basis is orthonormal)
    fidelity = abs(np.sum(np.abs(s.coefficients) ** 2 * np.exp(-1j * s.energies() * T)))
    assert abs(fidelity - 1.0) < 1e-9
    # explicit overlap on a fine axis as a second route
    psi0 = box_evolve(s, 0.0, -1.0, 0.005, 2401)
    psiT = box_evolve(s, T, -1.0, 0.005, 2401)
    ov = abs(np.trapezoid(np.conj(psi0.samples) * psiT.samples, psi0.x_axis()))
    assert abs(ov - 1.0) < 1e-9


def _box_evolve_matrix(s, t, x_min, dx, n):
    """``box_evolve``'s former sum: the whole n_max-by-inside sine matrix
    at once, summed over its mode axis."""
    x = x_min + dx * np.arange(n)
    inside = (x > s.a) & (x < s.b)
    values = np.zeros(n, dtype=np.complex128)
    phases = s.coefficients * np.exp(-1j * s.energies() * t)
    values[inside] = np.sqrt(2.0 / s.length) * np.sum(
        phases[:, None] * np.sin(np.outer(np.arange(1, s.n_max + 1),
                                          np.pi * (x[inside] - s.a) / s.length)), axis=0)
    return values


def test_box_evolve_bits_match_the_sine_matrix_sum():
    # adding one mode at a time, in the order of NumPy's sum over the mode
    # axis, gives the matrix sum's bits: on random spectra of up to 400
    # modes, and on the box-traversal packet and the wide box (-20, 20)
    # at the preset's times on the oracle's 8x axis
    rng = np.random.default_rng(36)
    cases = []
    for _ in range(60):
        n_max = int(rng.integers(1, 400))
        c = rng.normal(size=n_max) + 1j * rng.normal(size=n_max)
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.5, 20.0))
        s = BoxSpectrum(a, b, float(rng.uniform(0.5, 2.0)), c / np.linalg.norm(c))
        cases.append((s, float(rng.uniform(0.0, 10.0)), (a - 1.0, (b - a + 2.0) / 1000, 1001)))
    axis = (-26.0, 0.1 / 8, 4161)
    for a, b, x0 in ((0.0, 10.0, 5.0), (-20.0, 20.0, 0.0)):
        s = project_gaussian_to_box(GaussianPacket(x0, 4.0, 0.6, 1.0), a, b, 1000)
        cases += [(s, t, axis) for t in (0.0, 0.625, 1.25, 1.875)]
    for s, t, axis in cases:
        assert box_evolve(s, t, *axis).samples.tobytes() == _box_evolve_matrix(s, t, *axis).tobytes()


def test_box_walls_exact_zero():
    g = GaussianPacket(x0=5.0, p0=4.0, sigma=0.6, m=1.0)
    s = project_gaussian_to_box(g, 0.0, 10.0, 48)
    psi = box_evolve(s, 1.7, -1.0, 0.01, 1201)
    x = psi.x_axis()
    outside = (x <= 0.0) | (x >= 10.0)
    assert np.all(psi.samples[outside] == 0.0)


def test_projection_truncation_error_small():
    g = GaussianPacket(x0=5.0, p0=0.0, sigma=0.5, m=1.0)
    x = np.linspace(0.0, 10.0, 20001)
    s = project_gaussian_to_box(g, 0.0, 10.0, 64)
    recon = box_evolve(s, 0.0, 0.0, 10.0 / 20000, 20001)
    err = np.sqrt(np.trapezoid(np.abs(recon.samples - g.amplitude(x, 0.0)) ** 2, x))
    assert err < 1e-8


def test_projection_symmetry_selection():
    # packet symmetric about the box center with p0 = 0: modes that are
    # antisymmetric about the center (even n) must vanish
    g = GaussianPacket(x0=5.0, p0=0.0, sigma=0.7, m=1.0)
    s = project_gaussian_to_box(g, 0.0, 10.0, 40)
    even_n = np.abs(s.coefficients[1::2])
    assert even_n.max() < 1e-10


def test_projection_monotone_in_n_max():
    # raw quadrature residuals (no truncation gate) so the under-resolved
    # regime is visible; doubling n_max must not increase the error
    g = GaussianPacket(x0=4.0, p0=2.5, sigma=0.6, m=1.0)
    x = np.linspace(0.0, 10.0, 20001)
    target = g.amplitude(x, 0.0)

    def residual(n_max):
        n = np.arange(1, n_max + 1)
        basis = np.sqrt(0.2) * np.sin(np.outer(n, np.pi * x / 10.0))
        c = np.trapezoid(basis * target[None, :], x, axis=1)
        recon = np.sum(c[:, None] * basis, axis=0)
        return np.sqrt(np.trapezoid(np.abs(recon - target) ** 2, x))

    errs = [residual(n) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]


def test_projection_idempotent():
    g = GaussianPacket(x0=5.0, p0=2.5, sigma=0.6, m=1.0)
    s1 = project_gaussian_to_box(g, 0.0, 10.0, 48)
    dx = 10.0 / 40000
    psi = box_evolve(s1, 0.0, 0.0, dx, 40001)
    x = psi.x_axis()
    n = np.arange(1, 49)
    basis = np.sqrt(2.0 / 10.0) * np.sin(np.outer(n, np.pi * x / 10.0))
    c2 = np.trapezoid(basis * psi.samples[None, :], x, axis=1)
    assert np.abs(c2 - s1.coefficients).max() < 1e-12


@pytest.mark.parametrize("x0, p0, sigma, a, b", [
    (5.0, 4.0, 0.6, 0.0, 10.0),  # the box-traversal preset
    (1.4, 0.0, 0.6, -5.0, 5.0),  # 1e-9 of its mass outside the walls
    (0.5, 2.0, 0.5, -3.0, 4.5),
    (0.2, 1.0, 0.4, -3.0, 3.5),
])
def test_projection_matches_image_train_quadrature(x0, p0, sigma, a, b):
    # the closed form against a 200001-node trapezoid of the normalised
    # odd image train: the train is smooth and 2L-periodic and each
    # integrand is even about both walls, so the trapezoid is spectrally
    # accurate
    g = GaussianPacket(x0=x0, p0=p0, sigma=sigma, m=1.0)
    L = b - a
    x = np.linspace(a, b, 200001)
    train = sum(g.amplitude(x + 2.0 * m * L, 0.0) - g.amplitude(2.0 * a - x + 2.0 * m * L, 0.0)
                for m in range(-3, 4))
    train /= np.sqrt(np.trapezoid(np.abs(train) ** 2, x))
    got = project_gaussian_to_box(g, a, b, 1000).coefficients
    ref = [np.trapezoid(np.sqrt(2.0 / L) * np.sin(n * np.pi * (x - a) / L) * train, x)
           for n in range(1, len(got) + 1)]
    assert np.abs(got - ref).max() < 1e-13


def test_projection_mode_count_and_tail():
    # the box-traversal packet: n_all = ceil((4 + 10/0.6) 10/pi) = 66 modes
    # carry it, and the tail past 8 modes is the parent's reconstruction error
    cfg = load_config(None, "box-traversal")
    g, a, b = cfg.packet, cfg.geometry["a"], cfg.geometry["b"]
    with pytest.raises(TruncationTooSevere,
                       match=r"^n_max = 8 reconstruction error 0\.972505 exceeds 1e-6$"):
        project_gaussian_to_box(g, a, b, 8)
    assert project_gaussian_to_box(g, a, b, 1000).n_max == 66


@pytest.mark.parametrize("b, n_max", [(10.0, 0), (10.0, -1), (0.0, 64)])
def test_projection_rejects_empty_box_or_mode_count(b, n_max):
    # a negative n_max would otherwise keep all but the last modes
    g = GaussianPacket(x0=5.0, p0=4.0, sigma=0.6, m=1.0)
    with pytest.raises(ValidationError, match="need b > a and n_max >= 1"):
        project_gaussian_to_box(g, 0.0, b, n_max)


def test_truncation_guard_fires():
    g = GaussianPacket(x0=5.0, p0=9.0, sigma=0.25, m=1.0)
    with pytest.raises(TruncationTooSevere):
        project_gaussian_to_box(g, 0.0, 10.0, 4)


def test_spectrum_norm_guard():
    with pytest.raises(ValidationError):
        BoxSpectrum(0.0, 1.0, 1.0, np.array([1.0, 0.5]))


def test_compare_fields(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    same = compare_fields(w, w)
    assert same.l2_rel == 0.0 and same.max_abs == 0.0 and same.mass_diff == 0.0
    scaled = WignerField(grid, 1.01 * w.values)
    assert abs(compare_fields(scaled, w).l2_rel - 0.01) < 1e-12
    other = PhaseGrid(-12.0, 12.0, 257, -8.0, 8.0, 259)
    with pytest.raises(GridMismatch):
        compare_fields(w, WignerField(other, np.zeros((257, 259))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compare_fields_norms_without_blas(seed, monkeypatch):
    # the L2 norms are einsum sums: BLAS's norm and dot (and the threads
    # they wake) are never reached, and the ratio matches an exactly
    # rounded reference
    rng = np.random.default_rng(seed)
    grid = PhaseGrid(-13.0, 13.0, 521, -8.0, 8.0, 513)
    b = rng.standard_normal((521, 513)) * np.exp(rng.uniform(-3.0, 3.0, 513))
    a = b + 1e-3 * rng.standard_normal(b.shape)

    def blas(*args, **kwargs):
        raise AssertionError("compare_fields reached a BLAS norm or dot")

    monkeypatch.setattr(np.linalg, "norm", blas)
    monkeypatch.setattr(np, "dot", blas)
    cmp = compare_fields(WignerField(grid, a), WignerField(grid, b))
    d = (a - b).ravel()
    ref = math.sqrt(math.fsum(d * d)) / math.sqrt(math.fsum(b.ravel() ** 2))
    assert abs(cmp.l2_rel - ref) <= 1e-13 * ref
    zero = compare_fields(WignerField(grid, a), WignerField(grid, np.zeros_like(b)))
    assert abs(zero.l2_rel - math.sqrt(math.fsum(a.ravel() ** 2))) <= 1e-13 * zero.l2_rel


def test_mass_diff_is_the_mass_of_the_difference(grid, gaussian_wave):
    # two fields of mass near 1 that differ in one cell by a mass of 1e-12;
    # the difference of their two masses would keep only about 4 digits
    w = wigner_of(gaussian_wave, grid)
    b = w.values.copy()
    b[0, 0] = 0.0
    a = b.copy()
    a[0, 0] = 1e-12 / (grid.dx * grid.dp)
    cmp = compare_fields(WignerField(grid, a), WignerField(grid, b))
    assert abs(cmp.mass_diff - 1e-12) <= 1e-9 * 1e-12


def test_require_in_window_counts_both_momenta():
    g = GaussianPacket(x0=5.0, p0=4.0, sigma=0.6, m=1.0)
    require_in_window(g, -12.0, 12.0)
    # the mirror image carries -p0: a window holding +p0 alone leaves half out
    with pytest.raises(SupportEscaped, match="5.00e-01"):
        require_in_window(g, 0.0, 12.0)


def test_images_equals_free_restriction_early():
    g = GaussianPacket(x0=12.0, p0=-1.0, sigma=1.0, m=1.0)
    psi_i = images_reflect(g, 0.2, **AXIS)
    psi_f = free_gaussian(g, 0.2, **AXIS)
    pos = psi_i.x_axis() > 0
    assert np.abs(psi_i.samples[pos] - psi_f.samples[pos]).max() < 1e-8


def _embedded(ref, grid):
    """The row-range reference ``ref`` on the whole ``grid``, +0.0 elsewhere."""
    lo = round((ref.grid.x_min - grid.x_min) / grid.dx)
    values = np.zeros((grid.n_x, grid.n_p))
    values[lo:lo + ref.grid.n_x] = ref.values
    return WignerField(grid, values)


@pytest.mark.parametrize("preset", ["halfline-bounce", "box-traversal"])
def test_row_range_reference_compares_as_the_whole_grid(preset):
    # the CLI's oracle holds the rows on its wave's support (256 of 513 on
    # the half line, 99 of 521 in the box); against it every frame's
    # comparison is the whole-grid oracle's, bit for bit
    cfg = load_config(None, preset)
    plan = cli.build_plan(cfg)
    for t in cfg.times:
        w, ref = evolve_bounded(plan, t), cli.oracle_field(cfg, t)
        assert ref.grid.n_x == {"halfline-bounce": 256, "box-traversal": 99}[preset]
        whole = wigner_of(cli._oracle_wave(cfg, t), cfg.grid)
        assert np.array_equal(_embedded(ref, cfg.grid).values.view(np.uint64),
                              whole.values.view(np.uint64))
        assert compare_fields(w, ref) == compare_fields(w, whole)


def test_row_range_reference_compares_other_rows_with_zero(grid, gaussian_wave):
    # a value planted in a field row outside the reference's rows moves
    # every metric, as against a whole-grid reference that is zero there
    w = wigner_of(gaussian_wave, grid)
    sub = PhaseGrid(grid.x_at(100), grid.x_at(156), 57, grid.p_min, grid.p_max, grid.n_p)
    ref = WignerField(sub, w.values[100:157])
    base = compare_fields(WignerField(grid, _embedded(ref, grid).values), ref)
    assert base == FieldComparison(0.0, 0.0, 0.0)
    for row in (0, 99, 157, 256):
        v = _embedded(ref, grid).values.copy()
        v[row, 128] = 0.5
        cmp = compare_fields(WignerField(grid, v), ref)
        assert cmp == compare_fields(WignerField(grid, v), _embedded(ref, grid))
        assert cmp.l2_rel > 0.0 and cmp.max_abs == 0.5
        assert cmp.mass_diff == 0.5 * grid.dx * grid.dp


def test_row_range_reference_needs_the_fields_axes(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    ref = w.values[100:157]
    x0, x1 = grid.x_at(100), grid.x_at(156)
    for sub, match in [
            # another p axis: its count, then its ends
            (PhaseGrid(x0, x1, 57, grid.p_min, grid.p_max, 255), "different grids"),
            (PhaseGrid(x0, x1, 57, grid.p_min, 1.01 * grid.p_max, 257), "different grids"),
            # another x step: the same first node and count, a longer range
            (PhaseGrid(x0, x1 + grid.dx, 57, grid.p_min, grid.p_max, 257), "different grids"),
            # the field's step, shifted by half a step or past the last row
            (PhaseGrid(x0 + 0.5 * grid.dx, x1 + 0.5 * grid.dx, 57, grid.p_min, grid.p_max, 257),
             "not a range"),
            (PhaseGrid(grid.x_at(201), grid.x_at(257), 57, grid.p_min, grid.p_max, 257),
             "not a range"),
            (PhaseGrid(grid.x_at(-1), grid.x_at(55), 57, grid.p_min, grid.p_max, 257),
             "not a range")]:
        with pytest.raises(GridMismatch, match=match):
            compare_fields(w, WignerField(sub, ref[:, :sub.n_p] if sub.n_p < 257 else ref))
