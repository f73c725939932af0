import concurrent.futures
import contextlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import event, example, given, seed, settings, strategies as st

from wignerwall import billiard_indicator, boundary_kernels, cli, kernel_from_indicator
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


# a half-line packet whose momentum density, of std 1/(2 sigma) = 3.3, has
# 23 % of its mass outside the window [-4, 4]
NARROW_PACKET = """
[geometry]
kind = halfline

[packet]
x0 = 6.0
p0 = 0.0
sigma = 0.15
mass = 1.0

[grid]
x_min = -12.0
x_max = 12.0
n_x = 65
p_min = -4.0
p_max = 4.0
n_p = 65

[times]
values = 0

[run]
outputs = marginals
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
    ("[geometry]\nkind = box\na = 0\nb = 10\n[packet]\nx0=5\np0=0\nsigma=1\nmass=1\n"
     "[run]\nn_modes = 0\n", "[run] n_modes must be >= 1"),
    # two times whose files would be one and the same
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[times]\nvalues = 1.0000001, 1.5, 1.0000002\n",
     "[times] values 1.0000001 and 1.0000002 share the file tag t1"),
    # a [geometry] key the kind does not read would be silently ignored
    ("[geometry]\nkind = halfline\na = 3.0\nb = 9.0\nradius = 2.0\n[packet]\nx0=9\np0=0\n"
     "sigma=1\nmass=1\n", "[geometry] kind = halfline reads no ['a', 'b', 'radius']"),
    ("[geometry]\nkind = box\na = 0\nb = 10\nradius = 1\n[packet]\nx0=5\np0=0\nsigma=1\n"
     "mass=1\n", "[geometry] kind = box reads no ['radius']"),
    ("[geometry]\nkind = billiard2d\nradius = 1\na = -1\nb = 1\n[packet]\nx0=0\np0=0\n"
     "sigma=1\nmass=1\n", "[geometry] kind = billiard2d reads no ['a', 'b']"),
    # so would a section or [run] key that the kind does not read
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[kernel2d]\nx_points = 7\np_half = 9999\n", "kind = halfline reads no [kernel2d]"),
    ("[geometry]\nkind = box\na = 0\nb = 10\n[packet]\nx0=5\np0=0\nsigma=1\nmass=1\n"
     "[kernel2d]\nn_p = 9\n", "kind = box reads no [kernel2d]"),
    ("[geometry]\nkind = halfline\n[packet]\nx0=9\np0=0\nsigma=1\nmass=1\n"
     "[run]\noutputs = report\nn_modes = 3\n", "kind = halfline reads no [run] n_modes"),
    ("[geometry]\nkind = billiard2d\nradius = 1\n[packet]\nx0=0\np0=0\nsigma=1\nmass=1\n"
     "[grid]\nn_x = 7\n", "kind = billiard2d reads no [grid]"),
    ("[geometry]\nkind = billiard2d\nradius = 1\n[packet]\nx0=0\np0=0\nsigma=1\nmass=1\n"
     "[times]\nvalues = 1, 2\n", "kind = billiard2d reads no [times]"),
    ("[geometry]\nkind = billiard2d\nradius = 1\n[packet]\nx0=0\np0=0\nsigma=1\nmass=1\n"
     "[run]\noutputs = fields\n", "kind = billiard2d reads no [run]"),
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
    capsys.readouterr()
    broken.write_bytes(b"\xff\xfe[geometry]\n")  # not UTF-8
    assert main(["validate", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config ") and "Traceback" not in err


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
    # the n_modes truncation is the oracle's own check, which every run makes
    (PRESETS["box-traversal"] + "\n[run]\nn_modes = 8\noutputs = marginals\n", 3),
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
    # the momentum density must lie in the window: 1.02e-8 and 9.93e-9 outside
    (NARROW_PACKET, 3),
    (NARROW_PACKET.replace("sigma = 0.15", "sigma = 0.716"), 3),
    (NARROW_PACKET.replace("sigma = 0.15", "sigma = 0.7165"), 0),
    # 1e-9 of the packet's mass lies outside the box: its image train is
    # smooth at the walls, so 64 modes carry it (l2_rel 1.4e-4 and 5.1e-4)
    (FAST_HALFLINE.replace("kind = halfline", "kind = box\na = -5.0\nb = 5.0")
     .replace("x0 = 8.0", "x0 = 1.4").replace("p0 = -4.0", "p0 = 0.0")
     .replace("sigma = 1.0", "sigma = 0.6") + "outputs = report\n", 0),
    # input the kind does not read, which runs used to ignore and exit 0
    (FAST_HALFLINE + "n_modes = 3\n[kernel2d]\nx_points = 7\np_half = 9999\n", 2),
    (PRESETS["disk-kernel"] + "[times]\nvalues = 1, 2\n[run]\noutputs = fields\n"
     "[grid]\nn_x = 7\n", 2),
], ids=["box-n_p-129", "halfline-n_x-129", "packet-on-wall", "y_halfwidth-nan",
        "threads-2", "ok",
        "packet-on-wall-no-report", "box-packet-outside", "box-n_modes-8-no-report",
        "disk-slices-outside", "disk-n_p-1", "disk-p_half-240", "disk-p_half-600",
        "disk-p_half-200", "times-share-tag", "momentum-outside-window",
        "momentum-just-outside", "momentum-just-inside", "box-mass-at-walls",
        "halfline-unread-n_modes-kernel2d", "disk-unread-times-run-grid"])
def test_validate_agrees_with_simulate(tmp_path, capsys, text, code):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == code
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == code
    # a set-up failure ends the run before any frame; the n_modes
    # truncation is the oracle's check, which simulate makes on each frame
    if code and "n_modes = 8" not in text:
        assert not re.search("^t=", capsys.readouterr().out, re.M)


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
    pools = []
    original = concurrent.futures.ThreadPoolExecutor

    class Recording(original):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    outs = [tmp_path / f"cores{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        monkeypatch.setattr(cli.os, "cpu_count", lambda n=n: n)
        assert main(["simulate", "--preset", "disk-kernel", "--out", str(out)]) == 0
    assert pools == [1, 2]
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


@pytest.mark.parametrize("preset", ["box-traversal", "disk-kernel"], ids=["box", "billiard2d"])
def test_demo_naive_rejects_box(tmp_path, capsys, preset):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(PRESETS[preset])
    assert main(["demo-naive", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: demo-naive runs on the halfline geometry only\n"
    assert not (tmp_path / "x").exists()


def test_build_plan_rejects_disk():
    with pytest.raises(ConfigError, match="dynamics is defined for halfline and box "
                                          "geometries only"):
        build_plan(load_config(None, "disk-kernel"))


@pytest.mark.parametrize("command,preset", [("simulate", "disk-kernel"),
                                            ("kernel", "box-traversal"),
                                            ("demo-naive", "halfline-bounce")])
def test_unusable_out_exits_2(tmp_path, capsys, command, preset):
    # an --out that is a file, or lies under one, cannot hold the artifacts
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        assert main([command, "--preset", preset, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_directory_at_report_path_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(FAST_HALFLINE + "outputs = marginals,report\n")
    out = tmp_path / "out"
    (out / "report.csv").mkdir(parents=True)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "report.csv" in err
    assert (out / "marginal_x_t1.5.csv").is_file()  # written before the report


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


def _written_disk_slices(monkeypatch, cfg) -> dict:
    """Run the disk kernel with each slice's values and metadata recorded,
    by file name, instead of written."""
    written = {}

    def record(w, path, metadata=None):
        written[os.path.basename(path)] = (np.array(w.values), metadata)
    monkeypatch.setattr(cli, "write_field_csv", record)
    assert cli.run_billiard_kernel(cfg, "unused") == 0
    return written


@pytest.mark.parametrize("radius,kernel2d,n_y", [
    (1.0, "", None),  # the preset, on the disk_preset fixture's indicator
    # linspace leaves 2 of these x samples and 11 of these p samples off
    # the exact negatives of their mirrors
    (1.0, "x_half = 0.7\nx_points = 4\np_half = 1.7\nn_p = 33\n", 121),
    (1.3, "x_half = 0.7\nx_points = 5\np_half = 1.7\nn_p = 33\n", 121),
], ids=["preset", "x_points-4", "x_points-5-radius-1.3"])
def test_disk_slices_mirror_direct_transform(monkeypatch, disk_preset, radius, kernel2d, n_y):
    # only the x >= 0 slices are transformed, the others are mirrored from
    # them: each written slice lies within 1e-15 of its peak of the slice
    # transformed from the whole x grid's indicator, the x >= 0 slices
    # bit for bit
    cfg = parse_config(PRESETS["disk-kernel"].replace("radius = 1.0", f"radius = {radius}")
                       + "[kernel2d]\n" + kernel2d)
    if n_y is None:
        ind, p_ax = disk_preset
    else:
        monkeypatch.setattr(cli, "_DISK_N_Y", n_y)
        quadrant, x_ax, p_ax, _ = cli._disk_indicator(cfg)
        ind = billiard_indicator(lambda x1, x2: (x1 / radius)**2 + (x2 / radius)**2,
                                 [x_ax, x_ax], quadrant.y_axes, subsamples=8)
    direct = kernel_from_indicator(ind, [p_ax, p_ax])
    x_ax = ind.x_axes[0]
    assert np.array_equal(x_ax, -x_ax[::-1]) and np.array_equal(p_ax, -p_ax[::-1])
    written = _written_disk_slices(monkeypatch, cfg)
    n, h = x_ax.size, x_ax.size // 2
    assert len(written) == n * n
    for i, j in np.ndindex(n, n):
        values, meta = written[f"kernel2d_x{i}_{j}.csv"]
        assert (meta["geometry"]["x1"], meta["geometry"]["x2"]) == (x_ax[i], x_ax[j])
        ref = direct[i, j]
        if i >= h and j >= h:
            assert np.array_equal(values.view(np.uint64), ref.view(np.uint64)), (i, j)
        assert np.abs(values - ref).max() <= 1e-15 * np.abs(ref).max(), (i, j)


def test_disk_preset_level_set_evaluations(monkeypatch):
    # the 2 x 2 points with x >= 0: one evaluation per x point, then two
    # per cell of the 221 x 441 half lattice (y_1 >= 0) for each of 64
    # subcells at each point; the y_1 = 0 row is evaluated by both factors
    evals = []

    def counting(B, *args, **kwargs):
        def counted(*coords):
            value = B(*coords)
            evals.append(np.size(value))
            return value
        return billiard_indicator(counted, *args, **kwargs)
    monkeypatch.setattr(cli, "billiard_indicator", counting)
    cli._disk_indicator(load_config(None, "disk-kernel"))
    assert sum(evals) == 4 + 4 * 64 * 2 * 221 * 441 == 4 + 4 * 64 * (441**2 + 441)
    assert sum(evals) == 49_900_036


def test_report_only_adds_its_file(tmp_path, capsys):
    # every frame is compared with the oracle whatever outputs holds:
    # report adds report.csv and changes no exit code, stdout or other file
    runs = {}
    for outputs in ("marginals", "marginals,report"):
        cfg_path = tmp_path / f"{outputs}.ini"
        cfg_path.write_text(FAST_HALFLINE + f"outputs = {outputs}\n")
        out = tmp_path / outputs
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        runs[outputs] = code, capsys.readouterr().out, files
    (code, stdout, files), (code_r, stdout_r, files_r) = runs.values()
    assert code == code_r == 0
    assert stdout == stdout_r and stdout.count(": l2_rel=") == 2
    assert files_r.pop("report.csv").startswith(b"t,l2_rel,")
    assert files == files_r and len(files) == 4


BOX = PRESETS["box-traversal"] + "\n[run]\noutputs = marginals\n"


def _l2_rel_error(t):
    return f"numerical guard: t={t}: l2_rel = "


@pytest.mark.parametrize("text,error,written", [
    # a grid barely wider than the box: wrong from the first frame
    (BOX.replace("x_min = -26.0", "x_min = -6.0").replace("x_max = 26.0", "x_max = 6.0")
     .replace("p_min = -12.0", "p_min = -8.0").replace("p_max = 12.0", "p_max = 8.0")
     .replace("n_x = 521", "n_x = 65").replace("n_p = 513", "n_p = 65")
     .replace("a = 0.0", "a = -5.0").replace("b = 10.0", "b = 5.0")
     .replace("x0 = 5.0", "x0 = 0.0").replace("p0 = 4.0", "p0 = 0.0")
     .replace("values = 0, 0.625, 1.25, 1.875, 2.5", "values = 0, 1")
     .replace("outputs = marginals", "outputs = fields"),
     _l2_rel_error("0"), ["field_t0.csv", "field_t0.bin", "field_t1.csv", "field_t1.bin"]),
    # past the grid path's horizon: the preset at t = 5, a slow packet at 7.5
    (BOX.replace("values = 0, 0.625, 1.25, 1.875, 2.5", "values = 2.5, 5"),
     _l2_rel_error("5"),
     ["marginal_x_t2.5.csv", "marginal_p_t2.5.csv", "marginal_x_t5.csv", "marginal_p_t5.csv"]),
    (BOX.replace("values = 0, 0.625, 1.25, 1.875, 2.5", "values = 5, 7.5")
     .replace("p0 = 4.0", "p0 = 1.0"),
     _l2_rel_error("7.5"), ["marginal_x_t5.csv", "marginal_p_t5.csv", "marginal_x_t7.5.csv",
                            "marginal_p_t7.5.csv"]),
    # at t = 4.5 the reflected packet reaches the oracle axis's ends, so the
    # frame cannot be checked
    (PRESETS["halfline-bounce"].replace("values = 0, 1, 2, 3, 4", "values = 4.5")
     + "\n[run]\noutputs = marginals\n",
     "numerical guard: t=4.5: reflected state reaches the axis ends\n",
     ["marginal_p_t4.5.csv", "marginal_x_t4.5.csv"]),
], ids=["narrow-grid-box", "box-traversal-t5", "slow-box-t7.5", "halfline-t4.5"])
def test_unchecked_frame_exits_3_without_report(tmp_path, capsys, text, error, written):
    # no report in outputs: every artifact is written, then a frame the
    # oracle rejects, or cannot check, sets exit 3
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(error)
    assert sorted(f.name for f in out.iterdir()) == sorted(written)


@pytest.mark.parametrize("text,failed,unwritten,error", [
    # the packet leaves the grid by t = 12: the shear's edge guard fires
    # before the frame is written
    (FAST_HALFLINE.replace("values = 0, 1.5", "values = 0, 12, 1.5")
     + "outputs = marginals,report\n", ["12"], ["12"], "post-shear edge mass "),
    # 8 modes cannot hold the packet: the oracle's truncation guard fires
    # on every frame, after its marginals are written
    (PRESETS["box-traversal"] + "\n[run]\nn_modes = 8\noutputs = marginals,report\n",
     ["0", "0.625", "1.25", "1.875", "2.5"], [], "n_max = 8 "),
], ids=["halfline-t12-leaves-grid", "box-n_modes-8"])
def test_guard_in_a_frame_fails_only_that_frame(tmp_path, capsys, text, failed, unwritten,
                                                error):
    # a guard that fires in a frame gives it its message as its stdout line
    # and a NaN report row; the later frames still run, and once the report
    # is written the first failed frame sets exit 3
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert err.startswith(f"numerical guard: t={failed[0]}: {error}")
    times = [f"{t:g}" for t in parse_config(text).times]
    lines = stdout.splitlines()
    assert len(lines) == len(times)
    for t, line in zip(times, lines):
        assert line.startswith(f"t={t}: " + (error if t in failed else "l2_rel="))
    rows = [row.split(",") for row in (out / "report.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == times
    for t, l2, max_abs, mass_diff, _ in rows:
        assert np.isnan([float(l2), float(max_abs), float(mass_diff)]).all() == (t in failed)
    assert sorted(f.name for f in out.iterdir()) == sorted(
        ["report.csv"] + [f"marginal_{a}_t{t}.csv" for t in times if t not in unwritten
                          for a in "xp"])


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
    # the benchmark tracer wraps these module attributes; a plan or oracle
    # built without calling through them would record no span
    calls = []

    def recording(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("halfline_kernel", "interval_kernel"):
        recording(boundary_kernels, name)
    for name in ("wigner_of", "images_reflect", "box_evolve"):
        recording(cli, name)
    halfline = parse_config(FAST_HALFLINE)
    build_plan(halfline)
    assert calls == ["wigner_of", "halfline_kernel"]
    cli.oracle_field(halfline, 1.5)
    assert calls[2:] == ["images_reflect", "wigner_of"]
    # sigma = 0.5 keeps the packet's mass outside (-4, 4) below 1e-8
    box = parse_config(FAST_HALFLINE.replace("kind = halfline",
                                             "kind = box\na = -4.0\nb = 4.0")
                       .replace("x0 = 8.0", "x0 = 0.0")
                       .replace("sigma = 1.0", "sigma = 0.5"))
    build_plan(box)
    assert calls[4:] == ["wigner_of", "interval_kernel"]
    cli.oracle_field(box, 1.5)
    assert calls[6:] == ["box_evolve", "wigner_of"]


def test_box_spectrum_projected_once_through_module(monkeypatch, tmp_path):
    # each frame's oracle projects the packet once, in closed form; the call
    # goes through cli.project_gaussian_to_box, which the benchmark tracer
    # wraps
    calls = []
    original = cli.project_gaussian_to_box

    def recording(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(cli, "project_gaussian_to_box", recording)
    box = (FAST_HALFLINE.replace("kind = halfline", "kind = box\na = -4.0\nb = 4.0")
           .replace("x0 = 8.0", "x0 = 0.0").replace("sigma = 1.0", "sigma = 0.5")
           .replace("values = 0, 1.5", "values = 0, 0.25, 0.5")
           + "outputs = report\n")
    cfg_path = tmp_path / "box.ini"
    cfg_path.write_text(box)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 3
    assert len((tmp_path / "out" / "report.csv").read_text().splitlines()) == 4
    # a spectrum is read-only
    with pytest.raises(ValueError):
        calls[0].coefficients[0] = 0.0


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
    half the time; the drawn kind's own [geometry] keys are always set and
    another kind's now and then, as are the sections and [run] keys the
    kind does not read; a removed key or an unknown section now and then."""
    ints = st.integers

    def pick(good):
        return str(draw(_BAD if draw(ints(0, 9)) == 5 else good))

    kind = draw(st.sampled_from(["halfline", "box", "billiard2d"] * 3 + ["circle"]))
    own = cli._KINDS[kind].keys if kind in cli._KINDS else ()
    if draw(ints(0, 15)) == 7:  # a key of another kind
        own += (draw(st.sampled_from(sorted({"a", "b", "radius"} - set(own)))),)
    unread = set(cli._KINDS[kind].unread) if kind in cli._KINDS else set()
    geometry = {"kind": st.just(kind), "a": ints(-10, 2), "b": ints(-2, 10),
                "radius": st.sampled_from(["0.5", "1", "2"])}
    p_half = draw(ints(1, 16))
    values = {
        "geometry": {key: geometry[key] for key in ("kind", *own)},
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
    required = {"geometry", "packet", "kind", *own, "x0", "p0", "sigma", "mass"}
    lines = []
    for section, keys in values.items():
        if section not in required and not draw(st.booleans()):
            continue
        if (section, "") in unread and draw(ints(0, 15)) != 7:
            continue
        lines.append(f"[{section}]")
        for key, good in keys.items():
            if (section, key) in unread and draw(ints(0, 15)) != 7:
                continue
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
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", "--config", str(cfg_path)])
    event(f"exit {code}")
    assert code in (0, 2, 3)


@st.composite
def simulate_configs(draw):
    """Scenario texts that simulate runs in well under a second: disk
    kernels with 1-5 x points and small momentum grids, and half-line and
    box packets on grids of at most 65 samples per axis.

    On such grids the set-up guards (the packet's mass, momentum density
    and box-wall amplitude inside to 1e-8 or 1e-6, the momentum window
    inside the x axis's band, the kernel reach inside the p axis's) pass
    only near one scenario per geometry: x in [-12, 12], p in [-4, 4],
    sigma = 0.75 and x0 = 6 on the half line; the box (-5, 5) with x in
    [-10, 10], p in [-5, 5], sigma = 0.6 and x0 = 0. The draws perturb
    these, scaled by s (x and sigma by s, p by 1/s and t by m s^2, which
    leaves their physics alone)."""
    ints, pick = st.integers, st.sampled_from
    kind = draw(pick(["halfline", "box", "billiard2d"]))
    if kind == "billiard2d":
        return (PRESETS["disk-kernel"].replace("radius = 1.0",
                                               f"radius = {draw(pick(['0.5', '1', '2']))}")
                + f"[kernel2d]\nx_points = {draw(ints(1, 5))}\n"
                f"x_half = {draw(pick(['0.1', '0.4', '0.9', '1.5']))}\n"
                f"n_p = {draw(ints(2, 9))}\np_half = {draw(pick(['0.5', '2', '8']))}\n")
    s, m = draw(pick([1.0, 0.5, 2.0])), draw(pick([1.0, 0.5, 2.0]))
    if kind == "halfline":
        geometry, x_half, p_half, sigma, x0 = "", 12, 4, 0.75, 6.0
    else:
        geometry = f"a = {(-5.0 + draw(pick([0.0, 0.25]))) * s:g}\nb = {5 * s:g}\n"
        x_half, p_half, sigma, x0 = 10, 5, 0.6, 0.0
    x0 += draw(pick([0.0, 0.25, -0.5]))
    sigma *= draw(pick([1.0, 1.05, 0.95, 1.1]))
    times = sorted(draw(st.sets(ints(0, 4), min_size=1, max_size=3)))
    return (f"[geometry]\nkind = {kind}\n{geometry}"
            f"[packet]\nx0 = {x0 * s:g}\np0 = {draw(pick([0.0, 0.25, -0.25])) / s:g}\n"
            f"sigma = {sigma * s:g}\nmass = {m:g}\n"
            f"[grid]\nx_min = {-x_half * s:g}\nx_max = {x_half * s:g}\n"
            f"n_x = {draw(pick([65, 64, 61]))}\n"
            f"p_min = {-p_half / s:g}\np_max = {p_half / s:g}\nn_p = {draw(pick([65, 63, 64]))}\n"
            f"[times]\nvalues = {', '.join(f'{k / 2 * m * s * s:g}' for k in times)}\n"
            f"[run]\noutputs = {draw(pick(['report', 'fields,report', 'marginals,report', 'fields', 'marginals']))}\n")


_NO_REPORT_HALFLINE = ("[geometry]\nkind = halfline\n[packet]\nx0 = 6\np0 = -0.25\n"
                       "sigma = 0.75\nmass = 1\n[grid]\nx_min = -12\nx_max = 12\nn_x = 65\n"
                       "p_min = -4\np_max = 4\nn_p = 65\n[times]\nvalues = 0, 1\n"
                       "[run]\noutputs = fields\n")


# derandomize seeds the draws from the test's source, so any edit to its
# body would re-roll them; this is the seed its body gave before the
# frame-line checks at its end were added, so the same 100 draws are run
_SIMULATE_FUZZ_SEED = int("fe6ac14882961702c0237ec2ea82ee6602590979ddfe6ece"
                          "da5a3c7e58bf90759d5db4cdb068be4089c2e8a18a1afa7a", 16)


@settings(max_examples=100, derandomize=True, deadline=None)
@seed(_SIMULATE_FUZZ_SEED)
@given(text=simulate_configs())
# runs without report that exit 0, which the drawn examples need not hold
@example(text=_NO_REPORT_HALFLINE)
@example(text=_NO_REPORT_HALFLINE.replace("kind = halfline", "kind = box\na = -5\nb = 5")
         .replace("x0 = 6", "x0 = 0").replace("p0 = -0.25", "p0 = 0.25")
         .replace("sigma = 0.75", "sigma = 0.6").replace("x_min = -12", "x_min = -10")
         .replace("x_max = 12", "x_max = 10").replace("p_min = -4", "p_min = -5")
         .replace("p_max = 4", "p_max = 5").replace("outputs = fields", "outputs = marginals"))
def test_simulate_fuzzed_config_exits_cleanly(tmp_path_factory, text):
    # simulate ends in an exit code with no traceback; a dynamic run that
    # exits 0 prints one l2_rel line per time, each below 1e-2, with or
    # without a report, and its report is within 0.05 of its oracle
    out = tmp_path_factory.mktemp("fuzz")
    cfg_path = out / "run.ini"
    cfg_path.write_text(text)
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out / "out")])
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "billiard2d" not in text:
        lines = re.findall(r"^t=(\S+): l2_rel=(\S+) ", stdout.getvalue(), re.M)
        assert [t for t, _ in lines] == [f"{t:g}" for t in parse_config(text).times]
        assert all(float(l2) < 1e-2 for _, l2 in lines)
    if code == 0 and "report" in text:
        rows = (out / "out" / "report.csv").read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[1]) < 0.05 for row in rows)
    # a run that reaches its frames prints one line per time, in order,
    # and writes one report row per time, whatever its exit code
    frames = re.findall(r"^t=(\S+): ", stdout.getvalue(), re.M)
    if frames:
        event("frames printed")
        times = [f"{t:g}" for t in parse_config(text).times]
        assert frames == times
        if "report" in text:
            rows = (out / "out" / "report.csv").read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == times
