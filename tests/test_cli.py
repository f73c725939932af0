import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerwall import boundary_kernels, cli
from wignerwall.cli import PRESETS, build_plan, load_config, main, parse_config
from wignerwall.errors import ConfigError
from wignerwall.oracle import FieldComparison
from wignerwall.phase_grid import WignerField, read_field_binary, read_field_csv

from conftest import scipy_modules_after

FAST_HALFLINE = """
[geometry]
kind = halfline

[packet]
x0 = 8.0
p0 = -4.0
sigma = 1.0
mass = 1.0

[grid]
x_min = -18.0
x_max = 18.0
n_x = 241
p_min = -10.0
p_max = 10.0
n_p = 241

[times]
values = 0, 1.5

[run]
"""


def test_presets_parse():
    for name in PRESETS:
        cfg = parse_config(PRESETS[name])
        assert cfg.geometry["kind"] in ("halfline", "box", "billiard2d")


def test_defaults_fill_in():
    cfg = parse_config("""
[geometry]
kind = halfline

[packet]
x0 = 9.0
p0 = -3.0
sigma = 1.0
mass = 1.0
""")
    assert cfg.grid.n_x == 513
    assert cfg.times == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert cfg.outputs == {"fields", "marginals", "report"}


@pytest.mark.parametrize("text,fragment", [
    ("[packet]\nx0=1\np0=0\nsigma=1\nmass=1\n", "geometry"),
    ("[geometry]\nkind = circle\n[packet]\nx0=1\np0=0\nsigma=1\nmass=1\n", "kind"),
    ("[geometry]\nkind = halfline\n", "packet"),
    ("[geometry]\nkind = box\na = 5\nb = 2\n[packet]\nx0=1\np0=0\nsigma=1\nmass=1\n",
     "a < b"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=1\np0=0\nsigma=-1\nmass=1\n",
     "packet"),
    # removed keys: a config that still sets one is an error naming it
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[run]\nthreads = -7\n", "threads"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[run]\noracle_oversample = 0\n", "oracle_oversample"),
    ("[geometry]\nkind = billiard2d\nradius = 1\n[packet]\nx0=0\np0=0\nsigma=1\n"
     "mass=1\n[kernel2d]\nsubsamples = 0\n", "subsamples"),
    ("[geometry]\nkind = billiard2d\nradius = 1\n[packet]\nx0=0\np0=0\nsigma=1\n"
     "mass=1\n[kernel2d]\nx_points = 0\n", "[kernel2d] x_points"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=nan\nmass=1\n",
     "[packet] sigma"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=inf\np0=0\nsigma=1\nmass=1\n",
     "[packet] x0"),
    ("[geometry]\nkind = box\na = nan\nb = 2\n[packet]\nx0=1\np0=0\nsigma=1\nmass=1\n",
     "[geometry] a"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[times]\nvalues = 0, nan\n", "[times] values"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[run]\nn_modes = 0\n", "[run] n_modes"),
    # two times whose files would be one and the same
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[times]\nvalues = 1.0000001, 1.5, 1.0000002\n",
     "[times] values 1.0000001 and 1.0000002 share the file tag t1"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_load_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, None)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "c.ini"), "halfline-bounce")
    with pytest.raises(ConfigError):
        load_config(None, "not-a-preset")


def test_validate_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.ini"
    ok.write_text(FAST_HALFLINE)
    assert main(["validate", "--config", str(ok)]) == 0
    # the removed flag is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(ok), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_HALFLINE.replace("x0 = 8.0", "x0 = 0.5"))
    assert main(["validate", "--config", str(bad)]) == 3  # packet on the wall
    broken = tmp_path / "broken.ini"
    broken.write_text("[geometry]\nkind = nowhere\n")
    assert main(["validate", "--config", str(broken)]) == 2


@pytest.mark.parametrize("text,code", [
    # kernel reach 2|x| = 52 is beyond pi/dp = 16.8: exit 2, never a wrong field
    (PRESETS["box-traversal"].replace("n_p = 513", "n_p = 129"), 2),
    # momentum window beyond the band of the coarse x axis
    (PRESETS["halfline-bounce"].replace("n_x = 513", "n_x = 129"), 3),
    (FAST_HALFLINE.replace("x0 = 8.0", "x0 = 0.5"), 3),  # packet on the wall
    (FAST_HALFLINE + "y_halfwidth = nan\n", 2),  # a removed key
    (FAST_HALFLINE + "threads = 2\n", 2),  # removed: the pool is sized per CPU
    (FAST_HALFLINE, 0),
    # set-up checks the packet is inside the region, with or without the oracle
    (FAST_HALFLINE.replace("x0 = 8.0", "x0 = 0.5") + "outputs = fields\n", 3),
    (PRESETS["box-traversal"].replace("x0 = 5.0", "x0 = 40.0"), 3),
    # the n_modes truncation is the oracle's own check: no report, no check
    (PRESETS["box-traversal"] + "\n[run]\nn_modes = 8\noutputs = marginals\n", 0),
    # every disk slice lies outside the disk: the indicator's own check
    (PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 2\nx_half = 5.0\n", 2),
    # one momentum sample cannot make a slice grid
    (PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\nn_p = 1\n", 2),
    # the slice corner sqrt(2) p_half must lie inside the band pi/dy = 325/R
    (PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\np_half = 240\n", 2),
    (PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\np_half = 600\n", 2),
    (PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\np_half = 200\n", 0),
    # the two times would write one field_t1.* and one report row t=1
    (FAST_HALFLINE.replace("values = 0, 1.5", "values = 1.0000001, 1.5, 1.0000002"), 2),
], ids=["box-n_p-129", "halfline-n_x-129", "packet-on-wall", "y_halfwidth-nan",
        "threads-2", "ok",
        "packet-on-wall-no-report", "box-packet-outside", "box-n_modes-8-no-report",
        "disk-slices-outside", "disk-n_p-1", "disk-p_half-240", "disk-p_half-600",
        "disk-p_half-200", "times-share-tag"])
def test_validate_agrees_with_simulate(tmp_path, text, code):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == code
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == code


def test_simulate_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(FAST_HALFLINE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    for tag in ("t0", "t1.5"):
        assert (out / f"field_{tag}.csv").exists()
        assert (out / f"field_{tag}.bin").exists()
        assert (out / f"marginal_x_{tag}.csv").exists()
        assert (out / f"marginal_p_{tag}.csv").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "t,l2_rel,max_abs,mass_diff,kernel_tail_mass"
    assert len(report) == 3
    l2 = float(report[1].split(",")[1])
    assert l2 < 1e-3


def test_simulate_deterministic(monkeypatch, tmp_path):
    # the disk indicator's pool has one thread per core; two disk runs, on
    # one core and on two, write byte-identical files
    workers = []
    original = cli.billiard_indicator

    def recording(*args, **kwargs):
        workers.append(kwargs["workers"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "billiard_indicator", recording)
    outs = [tmp_path / f"cores{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        monkeypatch.setattr(cli.os, "cpu_count", lambda n=n: n)
        assert main(["simulate", "--preset", "disk-kernel", "--out", str(out)]) == 0
    assert workers == [1, 2]
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("preset", [None, "disk-kernel", "box-traversal"])
def test_simulate_loads_no_scipy(preset, tmp_path):
    # the half line's Fourier shear, the disk kernel and the box's cubic
    # shear all run on numpy alone
    if preset is None:
        (tmp_path / "run.ini").write_text(FAST_HALFLINE)
        args = ["--config", str(tmp_path / "run.ini")]
    else:
        args = ["--preset", preset]
    args = ["simulate", *args, "--out", str(tmp_path / "out")]
    code = f"from wignerwall.cli import main\nassert main({args!r}) == 0"
    assert scipy_modules_after(code) == []


def test_simulate_binary_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(FAST_HALFLINE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    w_bin, _ = read_field_binary(out / "field_t0.bin")
    w_csv, _ = read_field_csv(out / "field_t0.csv")
    assert w_bin.grid == w_csv.grid
    assert np.abs(w_bin.values - w_csv.values).max() < 1e-11
    # x <= 0 support is exactly zero in the emitted fields
    x = w_bin.grid.x_axis()
    assert np.all(w_bin.values[x <= 0, :] == 0.0)


def test_demo_naive_metrics(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(FAST_HALFLINE.replace("values = 0, 1.5", "values = 0, 2.5"))
    out = tmp_path / "naive"
    assert main(["demo-naive", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "naive_violation.csv").read_text().splitlines()[1:]
    t0 = [float(v) for v in rows[0].split(",")]
    t1 = [float(v) for v in rows[1].split(",")]
    assert t0[1] < 1e-12 and t0[2] == 0.0
    assert t1[1] > 1e-3       # naive solution leaks past the wall
    assert t1[2] == 0.0       # convolution solution never does
    naive0, _ = read_field_csv(out / "naive_t0.csv")
    conv0, _ = read_field_csv(out / "convolution_t0.csv")
    pos = naive0.grid.x_axis() > 0
    assert np.abs(naive0.values[pos] - conv0.values[pos]).max() < 1e-8


def test_demo_naive_outgoing_packet_agrees(tmp_path):
    cfg_path = tmp_path / "run.ini"
    text = FAST_HALFLINE.replace("p0 = -4.0", "p0 = 3.0")
    text = text.replace("values = 0, 1.5", "values = 0, 1.0")
    cfg_path.write_text(text)
    out = tmp_path / "outgoing"
    assert main(["demo-naive", "--config", str(cfg_path), "--out", str(out)]) == 0
    naive, _ = read_field_csv(out / "naive_t1.csv")
    conv, _ = read_field_csv(out / "convolution_t1.csv")
    pos = naive.grid.x_axis() > 0
    scale = np.abs(conv.values).max()
    assert np.abs(naive.values[pos] - conv.values[pos]).max() < 1e-3 * scale


def test_demo_naive_rejects_box(tmp_path):
    cfg_path = tmp_path / "box.ini"
    cfg_path.write_text(PRESETS["box-traversal"])
    assert main(["demo-naive", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 2


def test_billiard_kernel_only(tmp_path):
    cfg = PRESETS["disk-kernel"] + """
[kernel2d]
x_points = 2
x_half = 0.3
n_p = 17
p_half = 1.5
"""
    cfg_path = tmp_path / "disk.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "disk"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    slices = sorted(out.glob("kernel2d_*.csv"))
    assert len(slices) == 4
    w, meta = read_field_csv(slices[0])
    assert meta["geometry"]["shape"] == "disk"
    assert not list(out.glob("field_*.csv"))  # no dynamics artifacts


def test_billiard_kernel_n_p_as_given(tmp_path):
    # an even n_p is used as given: 8 x 8 value rows, no p = 0 sample
    cfg_path = tmp_path / "disk.ini"
    cfg_path.write_text(PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\nn_p = 8\n")
    out = tmp_path / "disk"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    slices = sorted(out.glob("kernel2d_*.csv"))
    assert len(slices) == 1
    lines = slices[0].read_text().splitlines()
    assert lines[1] == "x,p,value" and len(lines[2:]) == 64
    w, _ = read_field_csv(slices[0])
    assert w.grid.n_x == w.grid.n_p == 8 and 0.0 not in w.grid.p_axis()


def test_billiard_kernel_scales_with_radius(tmp_path):
    # the y axis follows R, so a disk of radius 2 is resolved as the
    # preset's disk of radius 1: the x = 0 slice is R J1(2R|p|)/(pi|p|)
    from scipy.special import j1

    R = 2.0
    cfg_path = tmp_path / "disk.ini"
    cfg_path.write_text(PRESETS["disk-kernel"].replace("radius = 1.0", f"radius = {R}")
                        + "[kernel2d]\nx_points = 1\n")
    out = tmp_path / "disk"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    w, meta = read_field_csv(out / "kernel2d_x0_0.csv")
    assert meta["geometry"]["radius"] == R
    p = np.hypot(*np.meshgrid(w.grid.x_axis(), w.grid.p_axis(), indexing="ij"))
    safe = np.where(p == 0.0, 1.0, p)
    exact = np.where(p == 0.0, R * R / np.pi, R * j1(2.0 * R * safe) / (np.pi * safe))
    assert np.abs(w.values - exact).max() <= 5e-5 * R * R / np.pi


def test_guard_failure_exits_3(tmp_path):
    # packet reaches the grid edge within the requested times
    text = FAST_HALFLINE.replace("values = 0, 1.5", "values = 0, 12.0")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 3


def test_unknown_config_keys_exit_2(tmp_path):
    # a removed option and a misspelt key are errors, not silent defaults
    for extra in ("backend = direct", "oracle_oversampel = 4",
                  "y_halfwidth = 40", "oracle_oversample = 8"):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(FAST_HALFLINE + extra + "\n")
        assert main(["validate", "--config", str(cfg_path)]) == 2
    # the disk's y axis and subcells follow from its radius
    for extra in ("n_y = 441", "y_half = 2.125", "subsamples = 8"):
        cfg_path.write_text(PRESETS["disk-kernel"] + "[kernel2d]\n" + extra + "\n")
        assert main(["validate", "--config", str(cfg_path)]) == 2
    # the half-line wall is fixed at 0 and has no key
    cfg_path.write_text(FAST_HALFLINE.replace("kind = halfline", "kind = halfline\nwall = 0.0"))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(FAST_HALFLINE + "[grids]\nn_x = 5\n")
    assert main(["validate", "--config", str(cfg_path)]) == 2


def test_build_plan_looks_up_kernels_through_module(monkeypatch):
    # the benchmark tracer wraps these module attributes; a plan built
    # without calling through them would record no kernel span
    calls = []

    def recording(name):
        original = getattr(boundary_kernels, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("halfline_kernel", "interval_kernel"):
        monkeypatch.setattr(boundary_kernels, name, recording(name))
    build_plan(parse_config(FAST_HALFLINE))
    assert calls == ["halfline_kernel"]
    # sigma = 0.5 keeps the packet's mass outside (-4, 4) below 1e-8
    box = parse_config(FAST_HALFLINE.replace("kind = halfline",
                                             "kind = box\na = -4.0\nb = 4.0")
                       .replace("x0 = 8.0", "x0 = 0.0")
                       .replace("sigma = 1.0", "sigma = 0.5"))
    build_plan(box)
    assert calls == ["halfline_kernel", "interval_kernel"]


def test_box_spectrum_projected_once_through_module(monkeypatch, tmp_path):
    # the spectrum does not depend on t, so a run projects the packet once;
    # the call goes through cli.project_gaussian_to_box, which the
    # benchmark tracer wraps
    calls = []
    original = cli.project_gaussian_to_box

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "project_gaussian_to_box", recording)
    cli._box_spectrum.cache_clear()
    box = (FAST_HALFLINE.replace("kind = halfline", "kind = box\na = -4.0\nb = 4.0")
           .replace("x0 = 8.0", "x0 = 0.0").replace("sigma = 1.0", "sigma = 0.5")
           .replace("values = 0, 1.5", "values = 0, 0.25, 0.5")
           + "outputs = report\n")
    cfg_path = tmp_path / "box.ini"
    cfg_path.write_text(box)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "out" / "report.csv").read_text().splitlines()) == 4
    # every frame shares the cached spectrum, so it is read-only
    with pytest.raises(ValueError):
        cli._box_spectrum(*calls[0]).coefficients[0] = 0.0
    assert len(calls) == 1


def test_disk_runs_when_cpu_count_unknown(monkeypatch, tmp_path):
    # os.cpu_count() may return None; the pool then has one thread
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["validate", "--preset", "disk-kernel"]) == 0
    cfg_path = tmp_path / "disk.ini"
    cfg_path.write_text(PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\nn_p = 8\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "disk")]) == 0


@pytest.mark.parametrize("fault", ["scaled-oracle", "nan-l2"])
def test_failing_report_exits_3_after_writing_every_artifact(monkeypatch, tmp_path,
                                                            capsys, fault):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(FAST_HALFLINE)
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(good)]) == 0
    if fault == "scaled-oracle":
        # the oracle is 10% off at t = 1.5 only, so l2_rel = 0.1/1.1 there
        oracle = cli.oracle_field

        def perturbed(cfg, t):
            w = oracle(cfg, t)
            return WignerField(w.grid, w.values * (1.1 if t == 1.5 else 1.0))
        monkeypatch.setattr(cli, "oracle_field", perturbed)
        t_bad, row = "1.5", 2
    else:
        # a NaN l2_rel is not below the bound either
        compare = cli.compare_fields

        def nan_l2(w, ref):
            cmp = compare(w, ref)
            return FieldComparison(np.nan, cmp.max_abs, cmp.mass_diff)
        monkeypatch.setattr(cli, "compare_fields", nan_l2)
        t_bad, row = "0", 1
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path), "--out", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"numerical guard: t={t_bad}: l2_rel = ")
    # every artifact is written; only the report differs
    names = sorted(f.name for f in good.iterdir())
    assert names == sorted(f.name for f in bad.iterdir())
    for name in names:
        if name != "report.csv":
            assert (good / name).read_bytes() == (bad / name).read_bytes(), name
    l2 = float((bad / "report.csv").read_text().splitlines()[row].split(",")[1])
    assert np.isnan(l2) if fault == "nan-l2" else abs(l2 - 0.1 / 1.1) < 1e-3


_BAD = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e400", "-1", "0"])
_REMOVED_KEYS = {"geometry": ["wall"], "run": ["threads", "oracle_oversample", "y_halfwidth",
                                               "backend"], "kernel2d": ["subsamples", "n_y"]}


@st.composite
def config_texts(draw):
    """INI text with grids of at most 65 samples per axis. One value in
    ten is malformed, non-finite or out of range; optional keys are set
    half the time; a removed key or an unknown section now and then."""
    ints = st.integers

    def pick(good):
        return str(draw(_BAD if draw(ints(0, 9)) == 5 else good))

    p_half = draw(ints(1, 16))
    values = {
        "geometry": {"kind": st.sampled_from(["halfline", "box", "billiard2d"] * 3
                                             + ["circle"]),
                     "a": ints(-10, 2), "b": ints(-2, 10),
                     "radius": st.sampled_from(["0.5", "1", "2"])},
        "packet": {"x0": ints(-5, 15), "p0": ints(-6, 6),
                   "sigma": st.sampled_from(["0.3", "0.6", "1", "2"]),
                   "mass": st.sampled_from(["0.5", "1", "2"])},
        "grid": {"x_min": ints(-30, -5), "x_max": ints(5, 30), "n_x": ints(-1, 65),
                 "p_min": st.just(-p_half), "p_max": st.one_of(st.just(p_half), ints(1, 16)),
                 "n_p": ints(-1, 65)},
        "times": {"values": st.lists(ints(-4, 8).map(lambda k: f"{k / 2:g}"),
                                     min_size=1, max_size=3).map(", ".join)},
        "run": {"outputs": st.sampled_from(["fields", "report", "marginals,report",
                                            "kernel", "fields,bogus"]),
                "n_modes": ints(-1, 64)},
        "kernel2d": {"x_points": ints(0, 3), "x_half": st.sampled_from(["0.1", "0.4", "3"]),
                     "n_p": ints(-1, 65), "p_half": st.sampled_from(["0.5", "2", "300"])},
    }
    required = {"geometry", "packet", "kind", "a", "b", "radius", "x0", "p0", "sigma", "mass"}
    lines = []
    for section, keys in values.items():
        if section not in required and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key, good in keys.items():
            if key in required or draw(st.booleans()):
                lines.append(f"{key} = {pick(good)}")
        for key in _REMOVED_KEYS.get(section, []):
            if draw(ints(0, 15)) == 7:
                lines.append(f"{key} = {pick(ints(0, 4))}")
    if draw(ints(0, 15)) == 7:
        lines.append("[grids]\nn_x = 5")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=config_texts())
def test_validate_fuzzed_config_exits_cleanly(tmp_path_factory, text):
    # whatever the text, validate ends in an exit code, not a traceback
    cfg_path = tmp_path_factory.mktemp("fuzz") / "run.ini"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) in (0, 2, 3)
