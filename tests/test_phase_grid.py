import numpy as np
import pytest

from wignerwall import (
    ComplexWave,
    GaussianPacket,
    PhaseGrid,
    ValidationError,
    WignerField,
    free_gaussian,
    marginal_p,
    marginal_x,
    read_field_binary,
    read_field_csv,
    total_mass,
    wigner_of,
    write_field_binary,
    write_field_csv,
)
from wignerwall.errors import GridMismatch
from wignerwall.phase_grid import abs_mass, edge_mass, wave_edge_fraction, write_csv

from conftest import odd_extended_wave


def test_grid_spacing_and_roundtrip():
    g = PhaseGrid(-3.0, 5.0, 17, -2.0, 2.0, 9)
    assert g.dx == (5.0 - (-3.0)) / 16
    assert g.dp == 0.5
    for i in range(g.n_x):
        assert g.x_at(i) == g.x_min + i * g.dx
        assert g.index_near_x(g.x_at(i)) == i
    assert np.allclose(g.x_axis()[[0, -1]], [-3.0, 5.0])


def test_grid_equality_by_defining_fields():
    a = PhaseGrid(-1, 1, 8, -2, 2, 8)
    b = PhaseGrid(-1, 1, 8, -2, 2, 8)
    c = PhaseGrid(-1, 1, 9, -2, 2, 8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("kwargs", [
    dict(x_min=0, x_max=0, n_x=4, p_min=-1, p_max=1, n_p=4),
    dict(x_min=0, x_max=1, n_x=1, p_min=-1, p_max=1, n_p=4),
    dict(x_min=0, x_max=1, n_x=4, p_min=2, p_max=1, n_p=4),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValidationError):
        PhaseGrid(**kwargs)


def test_zero_p_index():
    assert PhaseGrid(-1, 1, 4, -2, 2, 5).zero_p_index() == 2
    with pytest.raises(GridMismatch):
        PhaseGrid(-1, 1, 4, -2, 2, 4).zero_p_index()


def test_field_shape_and_immutability(grid):
    w = WignerField(grid, np.zeros((grid.n_x, grid.n_p)))
    with pytest.raises(ValueError):
        w.values[0, 0] = 1.0
    with pytest.raises(ValidationError):
        WignerField(grid, np.zeros((3, 3)))
    bad = np.zeros((grid.n_x, grid.n_p))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        WignerField(grid, bad)


def test_wave_norm_and_unit_check(grid, gaussian_wave):
    assert abs(gaussian_wave.norm_sq() - 1.0) < 1e-9
    gaussian_wave.require_unit_norm()
    doubled = ComplexWave(grid.x_min, grid.dx, grid.n_x, 2 * gaussian_wave.samples)
    with pytest.raises(ValidationError):
        doubled.require_unit_norm()


def test_marginal_x_unit_gaussian(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    mx = marginal_x(w)
    assert abs(mx.sum() * grid.dx - 1.0) < 1e-6
    # closed form |psi(0)|^2 = (2 pi)^(-1/2) for the sigma = 1 packet
    assert abs(mx[grid.index_near_x(0.0)] - (2 * np.pi) ** -0.5) < 1e-4


def test_marginal_zero_field(grid):
    w = WignerField(grid, np.zeros((grid.n_x, grid.n_p)))
    assert np.all(marginal_x(w) == 0.0)
    assert np.all(marginal_p(w) == 0.0)


def test_marginal_p_peak_matches_quadrature_oracle(grid, gaussian_wave):
    # independent oracle: momentum density at p = 0 is |psi_tilde(0)|^2
    # with psi_tilde(0) = (1/sqrt(2 pi)) int psi dx, by direct quadrature
    x = grid.x_axis()
    tilde0 = np.trapezoid(gaussian_wave.samples, x) / np.sqrt(2 * np.pi)
    expected = abs(tilde0) ** 2
    assert abs(expected - np.sqrt(2 / np.pi)) < 1e-9  # sanity on the oracle
    w = wigner_of(gaussian_wave, grid)
    assert abs(marginal_p(w)[grid.zero_p_index()] - expected) < 1e-4


def test_marginal_p_argmax_tracks_boost(grid):
    g = GaussianPacket(x0=0.0, p0=2.0, sigma=1.0, m=1.0)
    psi = free_gaussian(g, 0.0, grid.x_min, grid.dx, grid.n_x)
    w = wigner_of(psi, grid)
    mp = marginal_p(w)
    # moment check by quadrature alongside the argmax
    mean_p = np.sum(grid.p_axis() * mp) * grid.dp
    assert abs(mean_p - 2.0) < 1e-6
    assert abs(grid.p_axis()[np.argmax(mp)] - 2.0) <= grid.dp


def test_total_mass_examples(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    assert abs(total_mass(w) - 1.0) < 1e-6
    half = WignerField(grid, 0.5 * w.values)
    assert abs(total_mass(half) - 0.5) < 1e-6


def test_total_mass_odd_extension_restricted(grid):
    # oracle: the odd extension of a unit packet carries mass 1 on x > 0
    g = GaussianPacket(x0=5.0, p0=0.0, sigma=1.0, m=1.0)
    w = wigner_of(odd_extended_wave(g, grid), grid)
    pos = grid.x_axis() > 0
    restricted = float(w.values[pos, :].sum() * grid.dx * grid.dp)
    assert abs(restricted - 1.0) < 1e-3


def test_mass_linearity_and_marginal_consistency(grid, gaussian_wave):
    rng = np.random.default_rng(7)
    w1 = wigner_of(gaussian_wave, grid)
    w2 = WignerField(grid, rng.normal(size=w1.values.shape))
    a, b = 1.7, -0.4
    combo = WignerField(grid, a * w1.values + b * w2.values)
    lhs = total_mass(combo)
    rhs = a * total_mass(w1) + b * total_mass(w2)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    assert abs(marginal_x(combo).sum() * grid.dx - lhs) < 1e-12
    assert abs(marginal_p(combo).sum() * grid.dp - lhs) < 1e-12


def test_edge_mass_diagnostic(grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    assert edge_mass(w) < 1e-6 * abs_mass(w)
    assert wave_edge_fraction(gaussian_wave) < 1e-9
    shifted = GaussianPacket(x0=11.5, p0=0.0, sigma=1.0, m=1.0)
    x = grid.x_axis()
    psi = ComplexWave(grid.x_min, grid.dx, grid.n_x, shifted.amplitude(x, 0.0))
    assert wave_edge_fraction(psi) > 1e-3


def test_csv_roundtrip(tmp_path, grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    path = tmp_path / "field.csv"
    write_field_csv(w, path)
    back, meta = read_field_csv(path)
    assert meta is None
    assert back.grid == w.grid
    assert np.abs(back.values - w.values).max() < 1e-12


def test_csv_deterministic_bytes(tmp_path, grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(w, p1)
    write_field_csv(w, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_exact_text(tmp_path):
    # the one CSV format, pinned byte for byte: sorted-key JSON metadata
    # line, header, then 12 significant digits with a signed zero kept
    w = WignerField(PhaseGrid(-1, 1, 2, -0.5, 0.5, 2), [[0.0, -0.0], [1e-05, 1 / 3]])
    body = "x,p,value\n-1,-0.5,0\n-1,0.5,-0\n1,-0.5,1e-05\n1,0.5,0.333333333333\n"
    path = tmp_path / "field.csv"
    write_field_csv(w, path, metadata={"b": 1, "a": [0.5]})
    assert path.read_text(encoding="utf-8") == '# {"a": [0.5], "b": 1}\n' + body
    write_field_csv(w, path)
    assert path.read_text(encoding="utf-8") == body
    write_csv(path, ("t", "mass"), iter([(0.0, 1.0), (2.5, 2 / 3)]))
    assert path.read_text(encoding="utf-8") == "t,mass\n0,1\n2.5,0.666666666667\n"


@pytest.mark.parametrize("metadata", [None, {"geometry": "halfline", "wall": 0.0}])
def test_field_csv_same_bytes_as_write_csv(tmp_path, metadata):
    # axis values that need all 12 digits, a signed zero and a subnormal-scale
    # value; then a row of all +0.0, which the writer joins unformatted, and
    # two zero rows it must format: one holding a -0.0 and one holding the
    # smallest subnormal
    grid = PhaseGrid(-1, 1, 10, -1 / 3, 1 / 3, 5)
    values = np.zeros((10, 5))
    values[:7] = np.linspace(-1.0, 1.0, 35).reshape(7, 5) / 3
    values[0, 0], values[3, 2], values[6, 4] = -0.0, 1e-300, 0.0
    values[8, 1], values[9, 3] = -0.0, 5e-324
    w = WignerField(grid, values)
    triples = ((x, p, w.values[i, j]) for i, x in enumerate(grid.x_axis())
               for j, p in enumerate(grid.p_axis()))
    ref, out = tmp_path / "ref.csv", tmp_path / "field.csv"
    write_csv(ref, ("x", "p", "value"), triples, metadata)
    write_field_csv(w, out, metadata)
    assert out.read_bytes() == ref.read_bytes()
    body = out.read_bytes()
    assert body.count(b"-0\n") == 2
    assert b"1e-300\n" in body and b"4.94065645841e-324\n" in body


def test_percent_template_prints_format_text(tmp_path):
    # the CSV row templates apply '%.12g'; over random bit patterns (every
    # exponent, subnormals, nan and inf), their negatives and the special
    # values it prints what '{:.12g}' prints, for floats and numpy scalars
    rng = np.random.default_rng(11)
    vals = np.frombuffer(rng.bytes(8 * 40000), dtype=np.float64)
    vals = np.concatenate([vals, -vals, [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]])
    floats = vals.tolist()
    assert ["%.12g" % v for v in floats] == ["{:.12g}".format(v) for v in floats]
    assert ["%.12g" % v for v in vals[:2000]] == ["{:.12g}".format(v) for v in vals[:2000]]
    grid = PhaseGrid(-1, 1, 7, -1 / 3, 1 / 3, 9)
    w = WignerField(grid, vals[:63].reshape(7, 9))
    text = "x,p,value\n" + "".join(
        "{:.12g},{:.12g},{:.12g}\n".format(x, p, w.values[i, j])
        for i, x in enumerate(grid.x_axis()) for j, p in enumerate(grid.p_axis()))
    path = tmp_path / "field.csv"
    write_field_csv(w, path)
    assert path.read_text(encoding="utf-8") == text


def test_binary_roundtrip_bit_exact(tmp_path, grid, gaussian_wave):
    w = wigner_of(gaussian_wave, grid)
    path = tmp_path / "field.bin"
    write_field_binary(w, path, metadata={"note": "check"})
    back, meta = read_field_binary(path)
    assert meta == {"note": "check"}
    assert back.grid == w.grid
    assert np.array_equal(back.values, w.values)
