"""The guard table: every run-time threshold, its equality rule, class and
message in ``errors.GUARDS``, checked by ``errors.guard``, which appends
(name, reading, limit) to the open record."""

import math
import re

import numpy as np
import pytest

from wignerwall import (BoxSpectrum, ComplexWave, DomainTooSmall, GaussianPacket,
                        NumericalGuardError, PhaseGrid, RealnessViolation, ShapeIndicator,
                        ShearParams, SupportEscaped, TruncationTooSevere, ValidationError,
                        WignerField, cli, errors, free_gaussian, halfline_kernel, images_reflect,
                        kernel_from_indicator, naive_bounded_evolve, project_gaussian_to_box,
                        shear_evolve, wigner_of, wigner_transform)
from wignerwall.cli import PRESETS, parse_config
from wignerwall.convolution_engine import BoundedEvolutionPlan
from wignerwall.errors import GUARDS, RECORD, guard
from wignerwall.oracle import require_in_window, require_inside

from test_cli import FAST_HALFLINE

# name: (threshold, whether a reading equal to it fires, class); a change
# to any threshold is an edit here, made with the measured evidence for it
PINNED = {
    "shear_edge_mass": (1e-4, False, SupportEscaped),
    "plan_symmetry": (1e-6, False, ValidationError),
    "realness": (1e-10, False, RealnessViolation),
    "transform_wave_edge": (1e-9, False, DomainTooSmall),
    "oracle_wave_edge": (1e-9, False, SupportEscaped),
    "packet_region": (1e-8, False, SupportEscaped),
    "packet_window": (1e-8, False, SupportEscaped),
    "naive_wall_mass": (1e-8, False, ValidationError),
    "box_truncation": (1e-6, False, TruncationTooSevere),
    "box_norm": (1e-9, True, ValidationError),
    "l2_rel": (1e-2, True, None),
}

# the keyword fields each message template reads
FIELDS = {"realness": {"transform": "wigner_of"},
          "oracle_wave_edge": {"state": "reflected state"},
          "packet_region": {"a": 0.0, "b": 10.0},
          "packet_window": {"p_min": -4.0, "p_max": 4.0},
          "box_truncation": {"n_max": 8},
          "box_norm": {"n2": 2.0}}

# dx = 0.1875 keeps |p| <= 4 inside the transform's band, and dp = 0.125
# keeps the half-line kernel's reach 2|x| <= 24 below pi/dp
GRID = PhaseGrid(-12.0, 12.0, 129, -4.0, 4.0, 65)


def gauss_field(x0):
    """The Wigner function of a unit-width Gaussian packet at x0, p0 = 0."""
    x, p = GRID.x_axis()[:, None], GRID.p_axis()[None, :]
    return WignerField(GRID, np.exp(-(x - x0) ** 2 / 2 - 2 * p**2) / np.pi)


def gauss_wave(x0):
    g = GaussianPacket(x0, 0.0, 1.0, 1.0)
    return ComplexWave(GRID.x_min, GRID.dx, GRID.n_x, g.amplitude(GRID.x_axis(), 0.0))


def indicator(skew):
    """A 1-D indicator slice, made uneven in y by ``skew`` at one sample."""
    y = np.linspace(-1.0, 1.0, 9)
    g = (np.abs(y) < 0.6).astype(float)
    g[6] += skew
    return ShapeIndicator(1, (np.zeros(1),), (y,), g[None, :])


def transform(ok, monkeypatch):
    """``wigner_of`` of a packet, its transform corrupted by an imaginary
    1e-6 unless ``ok``."""
    if not ok:
        original = wigner_transform.fourier_over_separation
        monkeypatch.setattr(wigner_transform, "fourier_over_separation",
                            lambda *args: original(*args) + 1e-6j)
    return wigner_of(gauss_wave(0.0), GRID)


AXIS = (GRID.x_min, GRID.dx, GRID.n_x)
BOX_PACKET = GaussianPacket(5.0, 4.0, 0.6, 1.0)  # box-traversal's

# id: (guard name, its library call with (passing, failing) inputs, the
# failing call's class and whole message, as the library wrote them before
# the table)
CASES = {
    "shear_edge_mass": (
        "shear_edge_mass",
        lambda ok, mp: shear_evolve(gauss_field(0.0), ShearParams(0.5 if ok else 6.0, 1.0)),
        SupportEscaped, "post-shear edge mass 1.300e-04 exceeds 0.0001 of the field mass; "
                        "the state left the window"),
    "plan_symmetry": (
        "plan_symmetry",
        lambda ok, mp: BoundedEvolutionPlan(halfline_kernel(GRID), ShearParams(0.0, 1.0),
                                            gauss_field(0.0 if ok else 0.5)),
        ValidationError, "initial field breaks W(-x,-p) = W(x,p) by 1.77e-01; half-line plans "
                         "require the odd-extended state"),
    "realness-wigner_of": (
        "realness",
        transform,
        RealnessViolation, "imaginary residue 1e-06 of wigner_of's transform exceeds 1e-10 of "
                           "its peak |Re|, 0.31831"),
    "realness-kernel_from_indicator": (
        "realness",
        lambda ok, mp: kernel_from_indicator(indicator(0.0 if ok else 1e-6),
                                             [np.linspace(-3.0, 3.0, 7)]),
        RealnessViolation, "imaginary residue 3.87654e-08 of kernel_from_indicator's transform "
                           "exceeds 1e-10 of its peak |Re|, 0.198944"),
    "transform_wave_edge": (
        "transform_wave_edge",
        lambda ok, mp: wigner_of(gauss_wave(0.0 if ok else 11.0), GRID),
        DomainTooSmall, "wave support reaches the axis ends; enlarge the axis or pass "
                        "y_halfwidth for intentionally extended states"),
    "oracle_wave_edge-free": (
        "oracle_wave_edge",
        lambda ok, mp: free_gaussian(GaussianPacket(0.0, 0.0, 1.0, 1.0), 0.0 if ok else 20.0,
                                     *AXIS),
        SupportEscaped, "dispersed packet reaches the axis ends"),
    "oracle_wave_edge-images": (
        "oracle_wave_edge",
        lambda ok, mp: images_reflect(GaussianPacket(5.0, 2.0, 0.7, 1.0), 0.0 if ok else 4.0,
                                      *AXIS),
        SupportEscaped, "reflected state reaches the axis ends"),
    "packet_region": (
        "packet_region",
        lambda ok, mp: require_inside(GaussianPacket(8.0 if ok else 0.5, 0.0, 1.0, 1.0),
                                      0.0, math.inf),
        SupportEscaped, "3.09e-01 of the packet's mass lies outside the region (0, inf) at t = 0"),
    "packet_window": (
        "packet_window",
        lambda ok, mp: require_in_window(GaussianPacket(6.0, 0.0, 1.0 if ok else 0.15, 1.0),
                                         -4.0, 4.0),
        SupportEscaped, "2.30e-01 of the packet's momentum density lies outside the window "
                        "[-4, 4]"),
    "naive_wall_mass": (
        "naive_wall_mass",
        lambda ok, mp: naive_bounded_evolve(gauss_field(7.0 if ok else 0.0), ShearParams(0.5, 1.0)),
        ValidationError, "naive evolution expects an initial field vanishing for x <= 0"),
    "box_truncation": (
        "box_truncation",
        lambda ok, mp: project_gaussian_to_box(BOX_PACKET, 0.0, 10.0, 64 if ok else 8),
        TruncationTooSevere, "n_max = 8 reconstruction error 0.972505 exceeds 1e-6"),
    "box_norm": (
        "box_norm",
        lambda ok, mp: BoxSpectrum(0.0, 10.0, 1.0, [1.0, 0.0] if ok else [1.0, 1.0]),
        ValidationError, "coefficient norm^2 = 2.0, not 1 within 1e-9"),
}


def fires(name, reading, limit):
    return not (reading < limit or (reading == limit and not GUARDS[name][1]))


@pytest.fixture
def record():
    """An open record for the test's guard calls."""
    readings = []
    token = RECORD.set(readings)
    yield readings
    RECORD.reset(token)


def run_records(monkeypatch):
    """The lists ``cli.run`` opens, caught through the module attributes it
    calls: {"setup": the set-up's list, t: each frame's list}."""
    lists = {}
    build, evolve = cli.build_plan, cli.evolve_bounded

    def build_spy(cfg):
        lists["setup"] = RECORD.get()
        return build(cfg)

    def evolve_spy(plan, t):
        lists[t] = RECORD.get()
        return evolve(plan, t)
    monkeypatch.setattr(cli, "build_plan", build_spy)
    monkeypatch.setattr(cli, "evolve_bounded", evolve_spy)
    return lists


def test_table_pins_every_threshold_and_equality_rule():
    assert {name: entry[:3] for name, entry in GUARDS.items()} == PINNED
    assert sorted({name for name, *_ in CASES.values()} | {"l2_rel"}) == sorted(GUARDS)


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_compares_with_the_limit(name):
    threshold, equal_fires, error, _ = GUARDS[name]
    fields = FIELDS.get(name, {})

    def check(reading, scale=1.0):
        if error is None:
            return guard(name, reading, scale, **fields) is not None
        try:
            guard(name, reading, scale, **fields)
        except error:
            return True
        return False
    assert not check(0.5 * threshold) and check(2.0 * threshold)
    assert check(threshold) == equal_fires  # at the limit: today's > or >=
    assert check(float("nan"))  # whatever the comparison, a NaN fires
    assert not check(3.0 * threshold, scale=4.0) and check(3.0 * threshold, scale=2.0)


@pytest.mark.parametrize("factor", [1e3, 1e4])
def test_realness_limit_follows_the_peak(factor, record):
    # the residue of a scaled wave's transform scales with its peak, and
    # so does the limit; an absolute 1e-10 refused these at 8.7e-10 and
    # 9.1e-8
    wave = gauss_wave(0.0)
    unit = wigner_of(wave, GRID)
    w = wigner_of(ComplexWave(wave.x_min, wave.dx, wave.n, factor * wave.samples), GRID)
    assert np.abs(w.values - factor**2 * unit.values).max() <= 1e-15 * factor**2 / np.pi
    name, reading, limit = record[-1]
    assert name == "realness" and limit == 1e-10 * w.values.max() and 1e-10 < reading < limit


def test_verdict_returns_its_message():
    assert guard("l2_rel", 9.9e-3) is None
    assert guard("l2_rel", 0.5) == "l2_rel = 5.000e-01 against the oracle is not below 1e-2"
    assert guard("l2_rel", float("nan")) == ("l2_rel = nan against the oracle is not below "
                                             "1e-2")


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_guard_fires_through_its_library_call(case, monkeypatch):
    name, call, error, message = CASES[case]
    call(True, monkeypatch)
    with pytest.raises(error) as info:
        call(False, monkeypatch)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_guard_records_its_reading(case, monkeypatch, record):
    name, call, _, _ = CASES[case]
    call(True, monkeypatch)
    passed = [entry for entry in record if entry[0] == name]
    assert passed and not any(fires(*entry) for entry in record)
    del record[:]
    with pytest.raises(errors.WignerWallError):
        call(False, monkeypatch)
    assert record[-1][0] == name and fires(*record[-1])
    assert not any(fires(*entry) for entry in record[:-1])


def test_recorded_reading_and_limit(record):
    # the reading is the value compared and the limit the threshold times
    # the scale: 1e-4 of the field's absolute mass for the shear
    with pytest.raises(SupportEscaped):
        require_inside(GaussianPacket(0.5, 0.0, 1.0, 1.0), 0.0, math.inf)
    assert record == [("packet_region", 0.5 * math.erfc(0.5 / math.sqrt(2.0)), 1e-8)]
    del record[:]
    out = shear_evolve(gauss_field(0.0), ShearParams(0.5, 1.0))
    assert record == [("shear_edge_mass", out.edge_mass, 1e-4 * out.abs_mass)]


def test_no_open_record_records_nothing(monkeypatch):
    # a record opened and closed earlier gets nothing; the calls pass and
    # fail as with a record open
    assert RECORD.get() is None
    closed = []
    RECORD.reset(RECORD.set(closed))
    for case, (name, call, error, message) in sorted(CASES.items()):
        call(True, monkeypatch)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(False, monkeypatch)
        monkeypatch.undo()
    assert closed == [] and RECORD.get() is None


# the half-line oracle's guards, then the verdict
ORACLE = ["packet_region", "oracle_wave_edge", "transform_wave_edge", "realness", "l2_rel"]


@pytest.mark.parametrize("times, code", [("0, 1.5", 0), ("0, 12, 1.5", 3)])
def test_run_records_set_up_and_each_frame(tmp_path, monkeypatch, times, code):
    lists = run_records(monkeypatch)
    cfg = parse_config(FAST_HALFLINE.replace("values = 0, 1.5", f"values = {times}")
                       + "outputs = marginals\n")
    if code:
        with pytest.raises(NumericalGuardError, match="^t=12: post-shear edge mass "):
            cli.run(cfg, str(tmp_path))
    else:
        assert cli.run(cfg, str(tmp_path)) == 0
    assert RECORD.get() is None
    setup = lists.pop("setup")
    # W0's transform, the plan's symmetry check and its kernel amplitudes
    assert [name for name, *_ in setup] == ["packet_window", "packet_region",
                                            "transform_wave_edge", "realness",
                                            "plan_symmetry", "realness"]
    assert sorted(lists) == sorted(cfg.times)
    for t, frame in lists.items():
        names = [name for name, *_ in frame]
        if t == 0:  # the shear returns W0 itself
            assert names == ORACLE
        elif t == 12:  # the shear's guard fires: no oracle, no verdict
            assert names == ["shear_edge_mass"] and fires(*frame[0])
        else:
            assert names == ["shear_edge_mass"] + ORACLE
        assert [fires(*entry) for entry in frame] == [t == 12] + [False] * (len(frame) - 1)


def test_run_records_a_failed_verdict(tmp_path, monkeypatch):
    lists = run_records(monkeypatch)
    oracle = cli.oracle_field

    def perturbed(cfg, t):
        w = oracle(cfg, t)
        return WignerField(w.grid, w.values * (1.1 if t == 1.5 else 1.0))
    monkeypatch.setattr(cli, "oracle_field", perturbed)
    cfg = parse_config(FAST_HALFLINE + "outputs = marginals\n")
    with pytest.raises(NumericalGuardError) as info:
        cli.run(cfg, str(tmp_path))
    assert str(info.value) == "t=1.5: l2_rel = 9.090e-02 against the oracle is not below 1e-2"
    name, reading, limit = lists[1.5][-1]
    assert (name, limit) == ("l2_rel", 1e-2) and abs(reading - 0.1 / 1.1) < 1e-3
    assert lists[0.0][-1][0] == "l2_rel" and not fires(*lists[0.0][-1])


@pytest.mark.parametrize("preset", ["halfline-bounce", "disk-kernel"])
def test_cli_closes_its_records(tmp_path, monkeypatch, preset, record):
    # run and validate each open their own records and, returning or
    # raising, restore the one open before them
    text = FAST_HALFLINE if preset == "halfline-bounce" else (
        PRESETS["disk-kernel"] + "[kernel2d]\nx_points = 1\nn_p = 8\n")
    cfg = parse_config(text)
    assert cli.validate(cfg) == 0 and RECORD.get() is record
    assert cli.run(cfg, str(tmp_path / "ok")) == 0 and RECORD.get() is record
    bad = parse_config(FAST_HALFLINE.replace("x0 = 8.0", "x0 = 0.5"))
    with pytest.raises(SupportEscaped):
        cli.validate(bad)
    with pytest.raises(SupportEscaped):
        cli.run(bad, str(tmp_path / "bad"))
    assert RECORD.get() is record and record == []


def test_run_leaves_no_record_open(tmp_path):
    assert RECORD.get() is None
    assert cli.run(parse_config(FAST_HALFLINE), str(tmp_path)) == 0
    assert RECORD.get() is None
