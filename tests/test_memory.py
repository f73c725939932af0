"""Working-set ceilings at preset sizes, measured with tracemalloc.

Each of these steps once held a full-size temporary (the correlation
matrix and complex transform of every support row at once, a complex copy
of the whole disk indicator, the padded convolution of every inside row,
the spline gather's index and tap arrays over the whole field, the text
arrays of a whole field CSV) and now works in blocks; the box projection,
once a 64-mode basis over 20001 quadrature nodes, is now a closed form
over the packet's modes, and the box evolution, once a sine matrix over
every mode and inside point, adds one mode at a time. A change that
brings such a temporary back fails here. The disk indicator's sampling
is held to its output plus a few lattice-sized predicates of the one x
point it samples at a time.

Fields are not copied when their producer hands over a frozen array of
its own, and the field comparison, the kernel rows and the plan's
symmetry check no longer form full-size differences or copies, so the
comparison and the plan's set-up have ceilings too. The plan keeps its
even kernel rows' spectrum as real amplitudes, and each chirp-z block
works in one padded buffer; a whole ``simulate`` run of each dynamic
preset is held to a ceiling as well. Each frame shears only the span of
the kernel's inside rows, and the CLI's oracle is transformed on the rows
of its wave's support alone, so both have ceilings below a whole field's
work.
"""

import numpy as np
import pytest

from wignerwall import (PhaseGrid, ShearParams, WignerField, box_evolve, cli,
                        compare_fields, evolve_bounded, far_field_check, kernel_from_indicator,
                        kernel_tail_bound, project_gaussian_to_box, shear_evolve, wigner_of,
                        write_field_csv)
from wignerwall.cli import _disk_indicator, _oracle_wave, load_config, oracle_field
from wignerwall.convolution_engine import BoundedEvolutionPlan

from conftest import traced_peak_mib


def test_box_projection_working_set():
    cfg = load_config(None, "box-traversal")
    g, a, b = cfg.packet, cfg.geometry["a"], cfg.geometry["b"]
    assert cfg.n_modes == 66
    # 69.1 MiB with every mode's basis row over 20001 quadrature nodes at
    # once; the closed form's 66 modes take 0.007 MiB
    assert traced_peak_mib(lambda: project_gaussian_to_box(g, a, b, cfg.n_modes)) <= 0.25


def test_box_evolve_working_set():
    cfg = load_config(None, "box-traversal")
    spectrum = project_gaussian_to_box(cfg.packet, cfg.geometry["a"], cfg.geometry["b"],
                                       cfg.n_modes)
    grid, k = cfg.grid, 8  # the oracle's axis
    axis = (grid.x_min, grid.dx / k, (grid.n_x - 1) * k + 1)
    # 1.55 MiB with the 66-mode sine matrix over the 799 inside points at
    # once; 0.18 MiB adding one mode at a time
    assert traced_peak_mib(lambda: box_evolve(spectrum, 1.25, *axis)) <= 0.5


@pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
def test_halfline_oracle_transform_working_set(t):
    cfg = load_config(None, "halfline-bounce")
    psi = _oracle_wave(cfg, t)  # on the grid's 8x refined axis
    assert psi.n == 8 * (cfg.grid.n_x - 1) + 1
    # 32.2 MiB with one chirp-z transform of all 256 correlation rows,
    # 11.2 MiB with the whole correlation matrix and a complex field;
    # 4.0-4.1 MiB in blocks of 16 rows, 3.1-3.2 MiB in blocks of 8,
    # 2.9-3.0 MiB with each block's chirp-z in one padded buffer (the first
    # call also builds the chirp-z cache)
    assert traced_peak_mib(lambda: wigner_of(psi, cfg.grid)) <= 3.1


# 11.0 MiB (half line, spectral shear) and 8.8 MiB (box, cubic shear) with
# every inside row convolved at once and the shear's phase matrix or gather
# arrays over the whole field; 4.46 and 4.53 MiB in blocks of 16 rows
# padded to the linear length 3 n_p - 2, 4.18 and 4.28 MiB in blocks of 8
# padded to the alias-free 2 n_p - 1; 3.17 and 2.62 MiB shearing the
# inside rows' span alone (256 and 99 rows), the spectral shift per block
# of columns and the spline's mirrored coefficients in one array
@pytest.mark.parametrize("preset, t, ceiling", [("halfline-bounce", 2.0, 3.4),
                                                ("box-traversal", 1.25, 2.8)],
                         ids=["halfline-bounce-2.0", "box-traversal-1.25"])
def test_bounded_frame_working_set(preset, t, ceiling):
    plan = cli.build_plan(load_config(None, preset))
    assert traced_peak_mib(lambda: evolve_bounded(plan, t)) <= ceiling


# 14.2 MiB (half line) and 10.6 MiB (box) when W0's field copied its
# array, the kernel rows' sinc terms were formed over all live rows at
# once and the half line's symmetry check differenced two whole-field
# copies; 10.1 and 9.0 MiB when the kernel held its grid-window samples
# and the plan evaluated every x row on the difference lattice, then
# copied out the inside ones; 7.1 and 4.0 MiB with the inside rows alone;
# 6.1 and 3.65 MiB with their spectrum at the alias-free length, and the
# rows and W0's transform in blocks of 8; 5.2 and 3.4 MiB with their real
# amplitudes and each block's chirp-z in one padded buffer
@pytest.mark.parametrize("preset, ceiling", [("halfline-bounce", 5.6),
                                             ("box-traversal", 3.55)],
                         ids=["halfline-bounce", "box-traversal"])
def test_build_plan_working_set(preset, ceiling):
    cfg = load_config(None, preset)
    assert traced_peak_mib(lambda: cli.build_plan(cfg)) <= ceiling


# the plan's own construction, its kernel and W0 given: 6.0 MiB (half
# line) and 4.9 MiB (box) with every x row's kernel row on the 2 n_p - 1
# point difference lattice and its inside copy; 5.0 and 1.95 MiB with the
# inside rows alone (256 and 99 of 513 and 521), whose spectrum it keeps;
# 4.0 and 1.56 MiB with that spectrum at next_fast_len(2 n_p - 1) = 1029
# points, not next_fast_len(3 n_p - 2) = 1540 (n_p = 513 in both); 3.2 and
# 1.36 MiB keeping the real amplitudes of the even rows, half its bytes
@pytest.mark.parametrize("preset, ceiling", [("halfline-bounce", 3.5),
                                             ("box-traversal", 1.5)],
                         ids=["halfline-bounce", "box-traversal"])
def test_plan_construction_working_set(preset, ceiling):
    plan = cli.build_plan(load_config(None, preset))
    assert traced_peak_mib(lambda: BoundedEvolutionPlan(
        plan.kernel, plan.shear, plan.initial, plan.check_support)) <= ceiling


# a whole simulate run of each dynamic preset as shipped (fields, marginals
# and report): 9.2-9.5 MiB (half line) and 7.6-7.7 MiB (box) while the plan
# kept its kernel rows' complex spectrum and each chirp-z block held three
# padded temporaries; 8.0-8.3 and 7.1-7.2 MiB while each frame sheared
# every x row and each oracle was a whole-grid field; 7.0-7.2 and 5.5 MiB
# on the inside span and the oracle's support rows (the lower readings
# with the chirp-z and formatter caches already built)
@pytest.mark.parametrize("preset, ceiling", [("halfline-bounce", 7.5),
                                             ("box-traversal", 5.9)],
                         ids=["halfline-bounce", "box-traversal"])
def test_simulate_working_set(preset, ceiling, tmp_path, capsys):
    cfg = load_config(None, preset)
    assert traced_peak_mib(lambda: cli.run(cfg, str(tmp_path))) <= ceiling


# the CLI's oracle frame, its wave and transform: 2.96-3.07 MiB (half line)
# and 2.64-2.68 MiB (box) on the whole grid, 1.97-2.07 and 0.98-1.03 MiB
# on the rows of the wave's support (256 of 513 and 99 of 521)
@pytest.mark.parametrize("preset, t, ceiling", [("halfline-bounce", 2.0, 2.3),
                                                ("box-traversal", 1.25, 1.3)],
                         ids=["halfline-bounce-2.0", "box-traversal-1.25"])
def test_oracle_field_working_set(preset, t, ceiling):
    cfg = load_config(None, preset)
    assert traced_peak_mib(lambda: oracle_field(cfg, t)) <= ceiling


@pytest.mark.parametrize("preset, t", [("halfline-bounce", 2.0), ("box-traversal", 1.25)])
def test_compare_fields_working_set(preset, t):
    cfg = load_config(None, preset)
    w, ref = evolve_bounded(cli.build_plan(cfg), t), oracle_field(cfg, t)
    # 4.0 MiB with the whole difference field and its absolute value;
    # 0.13 MiB for a block of 16 rows, 0.064 MiB for a block of 8
    assert traced_peak_mib(lambda: compare_fields(w, ref)) <= 1.0


def test_field_keeps_a_frozen_array_and_copies_any_other():
    grid = PhaseGrid(-1.0, 1.0, 257, -2.0, 2.0, 257)
    fresh = np.random.default_rng(3).standard_normal((257, 257))
    for given in (fresh, fresh[:, :], fresh.tolist(), np.asfortranarray(fresh)):
        w = WignerField(grid, given)  # writeable, a view, a list, another layout
        assert not np.shares_memory(w.values, fresh) and not w.values.flags.writeable
    view = fresh[:, :]
    view.flags.writeable = False
    assert not np.shares_memory(WignerField(grid, view).values, fresh)  # fresh still writes
    fresh.flags.writeable = False
    assert traced_peak_mib(lambda: WignerField(grid, fresh)) < 0.1
    assert WignerField(grid, fresh).values is fresh


@pytest.mark.parametrize("produce", ["wigner_of", "shear_evolve", "evolve_bounded"])
def test_producers_hand_over_their_arrays(produce, monkeypatch):
    cfg = load_config(None, "halfline-bounce")
    plan = cli.build_plan(cfg)
    given, post_init = [], WignerField.__post_init__

    def spy(self):
        given.append(self.values)
        post_init(self)

    monkeypatch.setattr(WignerField, "__post_init__", spy)
    w = {"wigner_of": lambda: wigner_of(_oracle_wave(cfg, 1.0), cfg.grid),
         "shear_evolve": lambda: shear_evolve(plan.initial, ShearParams(1.0, plan.shear.m)),
         "evolve_bounded": lambda: evolve_bounded(plan, 1.0)}[produce]()
    # the field holds the very array its producer made, frozen, not a copy
    assert w.values is given[-1] and not w.values.flags.writeable


def test_field_csv_working_set(tmp_path):
    w = evolve_bounded(cli.build_plan(load_config(None, "halfline-bounce")), 2.0)
    write_field_csv(w, tmp_path / "warm.csv")  # the formatter's tables, built once
    # 36 MiB with NumPy text arrays of the whole field at once, 2.0 MiB
    # with blocks of 16 rows and 1.06 MiB with blocks of 8
    assert traced_peak_mib(lambda: write_field_csv(w, tmp_path / "field.csv")) <= 1.5


def test_far_field_check_working_set():
    plan = cli.build_plan(load_config(None, "halfline-bounce"))
    # 2.5 MiB when every inside row of the kernel (256 x 1025) was
    # evaluated for one probe row; 0.05 MiB for the probe's row alone
    assert traced_peak_mib(lambda: far_field_check(plan.initial, 10.0)) <= 0.25


@pytest.mark.parametrize("preset", ["halfline-bounce", "box-traversal"])
def test_kernel_tail_bound_working_set(preset):
    plan = cli.build_plan(load_config(None, preset))
    # 2.15 MiB (half line) and 2.18 MiB (box) when the grid-window samples
    # of every kernel row were formed; 1.15 and 0.53 MiB for the inside
    # rows alone
    assert traced_peak_mib(lambda: kernel_tail_bound(plan.kernel, plan.initial)) <= 1.5


def test_disk_kernel_transform_working_set(disk_preset):
    ind, p_ax = disk_preset
    # 34.7 MiB with a complex copy of the whole (3, 3, 441, 441) indicator
    assert traced_peak_mib(lambda: kernel_from_indicator(ind, [p_ax, p_ax])) <= 12.0


def test_disk_indicator_sampling_working_set():
    cfg = load_config(None, "disk-kernel")
    # the indicator of the 2 x 2 points with x >= 0 is 5.9 MiB (7.2 MiB
    # peak, 7.5 MiB on a pool of two threads); all 3 x 3 points' output
    # alone would be 13.4 MiB, and holding every subcell shift's
    # predicate of a point adds 12 MiB
    assert traced_peak_mib(lambda: _disk_indicator(cfg)) <= 12.0
