import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from wignerwall.phase_grid import _g12, abs_mass, edge_mass, wave_edge_fraction, write_csv

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
    # an infinite extent passes max > min, and its axis would be all NaN
    dict(x_min=-np.inf, x_max=0, n_x=5, p_min=-1, p_max=1, n_p=5),
    dict(x_min=0, x_max=np.inf, n_x=5, p_min=-1, p_max=1, n_p=5),
    dict(x_min=0, x_max=1, n_x=5, p_min=-np.inf, p_max=1, n_p=5),
    dict(x_min=0, x_max=1, n_x=5, p_min=-1, p_max=np.inf, n_p=5),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValidationError):
        PhaseGrid(**kwargs)


@pytest.mark.parametrize("x_min, dx", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
                                       (0.0, np.nan), (0.0, np.inf), (0.0, 0.0), (0.0, -0.1)])
def test_wave_rejects_bad_axis(x_min, dx):
    with pytest.raises(ValidationError):
        ComplexWave(x_min, dx, 4, np.ones(4))


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
    for value, at in ((np.nan, (0, 0)), (np.inf, (5, 7)), (-np.inf, (-1, -1))):
        bad = np.zeros((grid.n_x, grid.n_p))
        bad[at] = value
        with pytest.raises(ValidationError):
            WignerField(grid, bad)


def test_wave_norm(gaussian_wave):
    assert abs(gaussian_wave.norm_sq() - 1.0) < 1e-9


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


@pytest.mark.parametrize("shape", [(513, 513), (521, 513), (65, 65), (5, 7), (4, 4)])
def test_edge_mass_bit_identical_to_abs_of_whole_field(shape):
    # |W| of the four rim slices sums to the same bits as the rims of |W|
    rng = np.random.default_rng(shape[0] * shape[1])
    grid = PhaseGrid(-1.0, 1.0, shape[0], -2.0, 2.0, shape[1])
    w = WignerField(grid, rng.standard_normal(shape))
    v = np.abs(w.values)
    total = v[:2, :].sum() + v[-2:, :].sum() + v[2:-2, :2].sum() + v[2:-2, -2:].sum()
    assert edge_mass(w) == float(total * grid.dx * grid.dp)


def test_masses_are_kept_per_field_object(grid):
    # two fields on one grid compare equal, yet each keeps its own masses
    rng = np.random.default_rng(7)
    a = WignerField(grid, rng.standard_normal((grid.n_x, grid.n_p)))
    b = WignerField(grid, 2.0 * a.values)
    assert a == b
    assert abs_mass(b) == 2.0 * abs_mass(a) and edge_mass(b) == 2.0 * edge_mass(a)
    # computed once: a value written behind the field's back is not seen
    kept = (abs_mass(a), edge_mass(a))
    a.values.flags.writeable = True
    a.values[:] *= 3.0
    assert (abs_mass(a), edge_mass(a)) == kept


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


def assert_field_csv_is_write_csv(tmp_path, w, metadata=None) -> bytes:
    """write_field_csv of ``w`` is byte for byte write_csv of its
    (x, p, value) triples; returns the bytes."""
    triples = ((x, p, w.values[i, j]) for i, x in enumerate(w.grid.x_axis())
               for j, p in enumerate(w.grid.p_axis()))
    ref, out = tmp_path / "ref.csv", tmp_path / "field.csv"
    write_csv(ref, ("x", "p", "value"), triples, metadata)
    write_field_csv(w, out, metadata)
    assert out.read_bytes() == ref.read_bytes()
    return out.read_bytes()


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
    body = assert_field_csv_is_write_csv(tmp_path, WignerField(grid, values), metadata)
    assert body.count(b"-0\n") == 2
    assert b"1e-300\n" in body and b"4.94065645841e-324\n" in body


def _seam_field(case):
    rng = np.random.default_rng(len(case))
    if case == "block-ends-inside":  # 27 rows of 300 cells per block
        values = rng.standard_normal((61, 300))
    elif case == "one-nonzero-row":
        values = np.zeros((9, 7))
        values[4] = rng.standard_normal(7)
    elif case == "2x2":
        values = rng.standard_normal((2, 2))
    elif case == "2x8193":  # one row per block
        values = rng.standard_normal((2, 8193))
    elif case == "negative-zero":
        values = rng.standard_normal((3, 11))
        values[1, [0, 5, 10]] = -0.0
    else:  # [10, 1e12) and >= 1e12, on both sides of each power of 10
        values = 10.0 ** rng.uniform(1.0, 16.0, (6, 50)) * rng.choice([-1.0, 1.0], (6, 50))
        values[0, :16] = [float(f"1e{k}") for k in range(1, 17)]
        values[1, :16] = np.nextafter(values[0, :16], 0)
    n_x, n_p = values.shape
    return WignerField(PhaseGrid(-1.7, 2.3, n_x, -np.pi, np.pi, n_p), values)


@pytest.mark.parametrize("case", ["block-ends-inside", "one-nonzero-row", "2x2", "2x8193",
                                  "negative-zero", "large-values"])
def test_field_csv_block_seams(tmp_path, case):
    w = _seam_field(case)
    assert_field_csv_is_write_csv(tmp_path, w)
    # and it reads back: the grid's coordinates pass the reader's check
    back, _ = read_field_csv(tmp_path / "field.csv")
    assert np.allclose(back.grid.x_axis(), w.grid.x_axis(), rtol=0, atol=1e-11)
    assert np.allclose(back.grid.p_axis(), w.grid.p_axis(), rtol=0, atol=1e-11)
    assert np.allclose(back.values, w.values, rtol=1e-11, atol=0)


def g12_lines(values) -> tuple[list[bytes], list[bytes]]:
    """The vectorised formatter's lines and '%.12g' % v's, for each value."""
    v = np.asarray(values, dtype=np.float64)
    got = _g12(v).tobytes().translate(None, b"\0").split(b"\n")[:-1]
    return got, [("%.12g" % x).encode() for x in v.tolist()]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_g12_matches_percent_format(values):
    got, want = g12_lines(values)
    assert got == want


def test_g12_matches_percent_format_seeded():
    rng = np.random.default_rng(23)
    bits = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-40, 41)])
    # a half in the 12th digit (exact, or as near as a double gets), and the doubles next to them
    halves = (rng.integers(10**11, 10**12, 20_000) + 0.5) * 10.0 ** rng.integers(-30, 30, 20_000)
    special = [999999999999.5, 9.999999999995e-5, 0.99999999999995, 0.0, 5e-324,
               1.7976931348623157e308, np.inf, np.nan]
    values = np.concatenate([bits, np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
                             np.nextafter(halves, 0), halves, np.nextafter(halves, np.inf),
                             rng.standard_normal(20_000) * 1e-3, special])
    values = np.concatenate([values, -values])
    got, want = g12_lines(values)
    assert got == want


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


@pytest.mark.parametrize("cut,message", [
    (lambda raw: raw[:40], "a 40-byte file is shorter than the 64-byte field header"),
    (lambda raw: raw[:-8], "the file holds 112 bytes of values, not the 120 of its 3 x 5 grid"),
], ids=["40-byte-file", "8-bytes-short"])
def test_binary_reader_rejects_truncated_file(tmp_path, cut, message):
    # a file cut inside its 64-byte header, or 8 bytes short of its values,
    # is a ValidationError that names the problem, not struct's or NumPy's
    w = WignerField(PhaseGrid(-1, 1, 3, -2, 2, 5), np.arange(15.0).reshape(3, 5))
    path = tmp_path / "field.bin"
    write_field_binary(w, path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValidationError) as err:
        read_field_binary(path)
    assert str(err.value) == message


def test_csv_reader_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x,p,value\n-1,-1,0\n-1,1,abc\n1,-1,0\n1,1,0\n")
    with pytest.raises(ValidationError, match="malformed CSV field rows: .*'abc'"):
        read_field_csv(path)


def _field_csv_3x5(tmp_path):
    """The lines of write_field_csv's file of a 3 x 5 field: the header,
    then the rows."""
    path = tmp_path / "field.csv"
    write_field_csv(WignerField(PhaseGrid(-1, 1, 3, -2, 2, 5), np.arange(15.0).reshape(3, 5)),
                    path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("edit,message", [
    (lambda lines: ["# {not json}\n", *lines], "malformed CSV field: Expecting"),
    (lambda lines: [b"\xff\xfe".decode("latin-1"), *lines],
     "malformed CSV field: 'utf-8' codec can't decode"),
    (lambda lines: lines[:1], "the CSV field has no rows"),
    (lambda lines: lines[:2], "grid needs at least 2 samples per axis"),
    (lambda lines: lines[:1] + [line.rsplit(",", 1)[0] + "\n" for line in lines[1:]],
     "CSV field rows have 2 columns, not 3"),
], ids=["not-json", "not-utf8", "header-only", "one-row", "two-columns"])
def test_csv_reader_rejects_malformed_file(tmp_path, edit, message):
    # each of these once raised json's, the codec's or NumPy's own error
    # (a header-only file after a NumPy warning), not a ValidationError
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(edit(_field_csv_3x5(tmp_path))).encode("latin-1"))
    with pytest.raises(ValidationError) as err:
        read_field_csv(path)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("edit,message", [
    # the rows in reverse order: x runs from 1 down to -1
    (lambda lines: lines[:1] + lines[:0:-1],
     "the CSV's x column is not the row-major uniform 3 x 5 grid"),
    (lambda lines: [line.replace("1,", "3,", 1) if line.startswith("1,") else line
                    for line in lines],  # x = -1, 0, 3: not uniform
     "the CSV's x column is not the row-major uniform 3 x 5 grid"),
    (lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:],  # two rows swapped
     "the CSV's p column is not the row-major uniform 3 x 5 grid"),
    # NaN is unequal to itself, so every row was read as a run of the first x
    (lambda lines: lines[:1] + [line.replace("-1,", "nan,", 1) if line.startswith("-1,")
                                else line for line in lines[1:]],
     "the CSV's x column is not the row-major uniform 1 x 15 grid"),
], ids=["rows-reversed", "x-not-uniform", "p-rows-swapped", "nan-x"])
def test_csv_reader_rejects_coordinates_off_the_grid(tmp_path, edit, message):
    # the reader once returned a wrong field for these: the coordinates must
    # be write_field_csv's row-major uniform grid
    path = tmp_path / "bad.csv"
    path.write_text("".join(edit(_field_csv_3x5(tmp_path))), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_field_csv(path)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("tail", [b"{not json}", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_binary_reader_rejects_bad_metadata_tail(tmp_path, tail):
    w = WignerField(PhaseGrid(-1, 1, 3, -2, 2, 5), np.arange(15.0).reshape(3, 5))
    path = tmp_path / "field.bin"
    write_field_binary(w, path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ValidationError, match=f"the {len(tail)}-byte metadata tail is not "
                                              "UTF-8 JSON: "):
        read_field_binary(path)
