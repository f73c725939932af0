"""Working-set ceilings at preset sizes, measured with tracemalloc.

Each of these steps once held a full-size temporary (a 64-mode basis over
20001 quadrature nodes, the correlation matrix and complex transform of
every support row at once, a complex copy of the whole disk indicator,
the padded convolution of every inside row, the spline gather's index
and tap arrays over the whole field) and now works in blocks. A change
that brings such a temporary back fails here. The disk indicator's
sampling is held to its output plus a few lattice-sized predicates per
thread.
"""

import pytest

from wignerwall import (cli, evolve_bounded, kernel_from_indicator, project_gaussian_to_box,
                        wigner_of)
from wignerwall.cli import _disk_indicator, _oracle_wave, load_config

from conftest import traced_peak_mib


def test_box_projection_working_set():
    cfg = load_config(None, "box-traversal")
    g, a, b = cfg.packet, cfg.geometry["a"], cfg.geometry["b"]
    assert cfg.n_modes == 64
    # 69.1 MiB with every mode's basis row at once
    assert traced_peak_mib(lambda: project_gaussian_to_box(g, a, b, cfg.n_modes)) <= 16.0


@pytest.mark.parametrize("t", [0.0, 2.0, 4.0])
def test_halfline_oracle_transform_working_set(t):
    cfg = load_config(None, "halfline-bounce")
    psi = _oracle_wave(cfg, t)  # on the grid's 8x refined axis
    assert psi.n == 8 * (cfg.grid.n_x - 1) + 1
    # 32.2 MiB with one chirp-z transform of all 256 correlation rows,
    # 11.2 MiB with the whole correlation matrix and a complex field;
    # 4.7 MiB in blocks of 16 rows
    assert traced_peak_mib(lambda: wigner_of(psi, cfg.grid)) <= 8.0


# 11.0 MiB (half line, spectral shear) and 8.8 MiB (box, cubic shear) with
# every inside row convolved at once and the shear's phase matrix or gather
# arrays over the whole field; 4.5 MiB for either in blocks of 16 rows
@pytest.mark.parametrize("preset, t, ceiling", [("halfline-bounce", 2.0, 8.0),
                                                ("box-traversal", 1.25, 6.0)])
def test_bounded_frame_working_set(preset, t, ceiling):
    plan = cli.build_plan(load_config(None, preset))
    assert traced_peak_mib(lambda: evolve_bounded(plan, t)) <= ceiling


def test_disk_kernel_transform_working_set(disk_preset):
    ind, p_ax = disk_preset
    # 34.7 MiB with a complex copy of the whole (3, 3, 441, 441) indicator
    assert traced_peak_mib(lambda: kernel_from_indicator(ind, [p_ax, p_ax])) <= 12.0


def test_disk_indicator_sampling_working_set(monkeypatch):
    cfg = load_config(None, "disk-kernel")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # the pool's size
    # the indicator of the 2 x 2 points with x >= 0 is 5.9 MiB (7.3 MiB
    # peak); all 3 x 3 points' output alone would be 13.4 MiB, and
    # holding every subcell shift's predicate of a point adds 12 MiB
    # per thread
    assert traced_peak_mib(lambda: _disk_indicator(cfg)) <= 12.0
