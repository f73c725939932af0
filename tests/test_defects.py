"""Defect matrix: one small defect per layer, injected through the module
attribute the program calls (as the benchmark tracer wraps them), and the
exit code of a small half-line and a small box run under it.

A run that exits 0 with a wrong field is the hole aim 3 of the ROADMAP
names; the defects that still exit 0 are strict xfails, each naming the
ROADMAP item that will make its run exit 3.
"""

import numpy as np
import pytest

from wignerwall import (BoundaryKernel, ComplexWave, ShearParams, WignerField, boundary_kernels,
                        cli, convolution_engine, wigner_transform)
from wignerwall.cli import main

from test_cli import FAST_HALFLINE
from test_guards import fires, run_records

TEXTS = {
    "halfline": FAST_HALFLINE,
    # sigma = 0.5 keeps the packet's mass outside (-4, 4) below 1e-8; past
    # t = 1 the small box grid's own error grows (3.5e-3 at t = 1)
    "box": FAST_HALFLINE.replace("kind = halfline", "kind = box\na = -4.0\nb = 4.0")
    .replace("x0 = 8.0", "x0 = 0.0").replace("sigma = 1.0", "sigma = 0.5"),
}
TIMES = {"halfline": "0, 0.75, 1.5, 2.5", "box": "0, 0.5, 1"}


def on_fields(f):
    """A shared-layer defect: ``f`` applied to every transformed field, the
    W0 of the plan and each oracle field alike."""
    def inject(monkeypatch):
        original = cli.wigner_of

        def defective(*args, **kwargs):
            w = original(*args, **kwargs)
            return WignerField(w.grid, f(w.values))
        monkeypatch.setattr(cli, "wigner_of", defective)
    return inject


def on_transform(f):
    """A shared-layer defect inside the separation transform."""
    def inject(monkeypatch):
        original = wigner_transform.fourier_over_separation
        monkeypatch.setattr(wigner_transform, "fourier_over_separation",
                            lambda C, K, dy, p, backend: f(original, C, K, dy, p, backend))
    return inject


def kernel_weights(factor):
    """A method-layer defect: every kernel jump's weight scaled."""
    def inject(monkeypatch):
        for name in ("halfline_kernel", "interval_kernel"):
            original = getattr(boundary_kernels, name)

            def scaled(*args, original=original):
                k = original(*args)
                return BoundaryKernel(k.grid, k.jumps, k.weights * factor, k.provenance,
                                      k.geometry)
            monkeypatch.setattr(boundary_kernels, name, scaled)
    return inject


def kernel_row_sign(monkeypatch):
    """A method-layer defect: the sign of the weight of one inside row's
    jump flipped, the middle inside row, under the packet at t = 0 (x = 9.15
    on the half line, x = 0 in the box)."""
    for name in ("halfline_kernel", "interval_kernel"):
        original = getattr(boundary_kernels, name)

        def flipped(*args, original=original):
            k = original(*args)
            inside = np.flatnonzero(k.inside)
            weights = k.weights.copy()
            weights[inside[len(inside) // 2]] *= -1.0
            return BoundaryKernel(k.grid, k.jumps, weights, k.provenance, k.geometry)
        monkeypatch.setattr(boundary_kernels, name, flipped)


def inside_mask_offset(monkeypatch):
    """A method-layer defect: the kernel's inside-row mask moved up by one
    row, so the first inside row above each lower wall is not convolved
    (+0.0) and the first row beyond the upper end, whose kernel row is
    zero, is."""
    for name in ("halfline_kernel", "interval_kernel"):
        original = getattr(boundary_kernels, name)

        def offset(*args, original=original):
            k = original(*args)
            object.__setattr__(k, "inside", np.roll(k.inside, 1))
            return k
        monkeypatch.setattr(boundary_kernels, name, offset)


def images_added(monkeypatch):
    """An oracle-layer defect: the half-line oracle adds its image,
    [phi(x) + phi(-x)] theta(x), instead of subtracting it."""
    original = cli.images_reflect

    def reflect(g, t, x_min, dx, n):
        wave = original(g, t, x_min, dx, n)
        x = wave.x_axis()
        return ComplexWave(x_min, dx, n, wave.samples + 2.0 * g.amplitude(-x, t) * (x > 0))
    monkeypatch.setattr(cli, "images_reflect", reflect)


def late_shear(monkeypatch):
    """A method-layer defect: the shear runs to 1.01 t, on the rows asked for."""
    original = convolution_engine.shear_evolve
    monkeypatch.setattr(convolution_engine, "shear_evolve",
                        lambda w0, s, check_support=True, rows=None:
                        original(w0, ShearParams(1.01 * s.t, s.m), check_support, rows))


DEFECTS = {
    "none": lambda monkeypatch: None,
    "transform-x1.5": on_transform(lambda f, C, K, dy, p, b: 1.5 * f(C, K, dy, p, b)),
    "transform-p-x1.01": on_transform(lambda f, C, K, dy, p, b: f(C, K, dy, 1.01 * p, b)),
    "blur-x": on_fields(lambda v: (np.roll(v, 1, 0) + 2.0 * v + np.roll(v, -1, 0)) / 4.0),
    "roll-x": on_fields(lambda v: np.roll(v, 1, 0)),
    # x1.01 reads l2_rel 1.000e-2 at t = 0, on the verdict's threshold
    "kernel-x1.02": kernel_weights(1.02),
    "kernel-x1.005": kernel_weights(1.005),
    "kernel-x0.995": kernel_weights(0.995),
    "shear-t-x1.01": late_shear,
    "kernel-row-sign": kernel_row_sign,
    "inside-mask+1": inside_mask_offset,
    "images-added": images_added,
}

ITEM_2 = "ROADMAP item 2: an exact x-marginal check, which the shared transform cannot fool"
ITEM_17 = "ROADMAP item 17: a verdict threshold at what right runs reach"


def case(defect, kind, code, fired, times=None, xfail=None):
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(defect, kind, times or TIMES[kind], code, fired, marks=marks,
                        id=f"{defect}-{kind}" + ("-t0" if times == "0" else ""))


@pytest.mark.parametrize("defect, kind, times, code, fired", [
    case("none", "halfline", 0, None),
    case("none", "box", 0, None),
    # fires once the field has moved: the t = 0 frames pass
    case("transform-p-x1.01", "halfline", 3, "l2_rel"),
    case("transform-p-x1.01", "box", 3, "l2_rel"),
    case("blur-x", "halfline", 3, "l2_rel"),
    case("blur-x", "box", 3, "l2_rel"),
    # the half line's W0 loses its point symmetry: the plan refuses it
    case("roll-x", "halfline", 2, "plan_symmetry"),
    case("roll-x", "box", 3, "l2_rel"),
    case("kernel-x1.02", "halfline", 3, "l2_rel"),
    case("kernel-x1.02", "box", 3, "l2_rel"),
    case("shear-t-x1.01", "halfline", 3, "l2_rel"),
    case("shear-t-x1.01", "box", 3, "l2_rel"),
    # the flipped row holds the packet at t = 0 only: l2_rel 0.30 and 0.82
    case("kernel-row-sign", "halfline", 3, "l2_rel"),
    case("kernel-row-sign", "box", 3, "l2_rel"),
    # the row next to the wall fails the bounce frames: 2.9e-2 at t = 1.5
    # on the half line and 3.5e-2 at t = 1 in the box
    case("inside-mask+1", "halfline", 3, "l2_rel"),
    case("inside-mask+1", "box", 3, "l2_rel"),
    # a box run has no image oracle; the half line fails once the packet
    # reaches the wall (l2_rel 0.64 at t = 1.5)
    case("images-added", "halfline", 3, "l2_rel"),
    # the same wrong transform makes W0 and the oracle: every l2_rel is as
    # without the defect
    case("transform-x1.5", "halfline", 3, "l2_rel", xfail=ITEM_2),
    case("transform-x1.5", "box", 3, "l2_rel", xfail=ITEM_2),
    # at t = 0 the method's field is W0 itself, as wrong as the oracle's
    case("blur-x", "halfline", 3, "l2_rel", times="0", xfail=ITEM_2),
    case("blur-x", "box", 3, "l2_rel", times="0", xfail=ITEM_2),
    # a 0.5 % wrong kernel reads l2_rel 5e-3, below the verdict's 1e-2
    case("kernel-x1.005", "halfline", 3, "l2_rel", xfail=ITEM_17),
    case("kernel-x1.005", "box", 3, "l2_rel", xfail=ITEM_17),
    case("kernel-x0.995", "halfline", 3, "l2_rel", xfail=ITEM_17),
    case("kernel-x0.995", "box", 3, "l2_rel", xfail=ITEM_17),
])
def test_defect_exit_code(tmp_path, monkeypatch, capsys, defect, kind, times, code, fired):
    DEFECTS[defect](monkeypatch)
    lists = run_records(monkeypatch)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(TEXTS[kind].replace("values = 0, 1.5", f"values = {times}")
                        + "outputs = report\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    fired_names = [entry[0] for readings in lists.values() for entry in readings
                   if fires(*entry)]
    assert fired_names[:1] == ([fired] if fired else [])
