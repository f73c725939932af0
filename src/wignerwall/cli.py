"""Scenario runner: configure geometry, packet, grid, and times from a flat
key=value config with section headers; emit fields, marginals, kernels, and
oracle comparison reports.

Units are natural (hbar = 1, user-set mass). Exit codes: 0 success,
2 validation failure, 3 numerical-guard failure: a set-up guard, before any
frame, or a failed dynamic frame (see ``run``), once every frame is written.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, boundary_kernels
from .boundary_kernels import (
    billiard_indicator,
    kernel_from_indicator,
    write_kernel_binary,
    write_kernel_csv,
)
from .convolution_engine import BoundedEvolutionPlan, evolve_bounded, kernel_tail_bound
from .errors import ConfigError, NumericalGuardError, ValidationError
from .free_evolution import ShearParams, naive_bounded_evolve, wall_violation_mass
from .oracle import (
    GaussianPacket,
    box_evolve,
    compare_fields,
    images_reflect,
    project_gaussian_to_box,
    require_in_window,
    require_inside,
)
from .phase_grid import (
    ComplexWave,
    PhaseGrid,
    WignerField,
    marginal_p,
    marginal_x,
    write_csv,
    write_field_binary,
    write_field_csv,
)
from .wigner_transform import wigner_of

PRESETS = {
    "halfline-bounce": """
[geometry]
kind = halfline

[packet]
x0 = 10.0
p0 = -5.0
sigma = 1.0
mass = 1.0

[grid]
x_min = -24.0
x_max = 24.0
n_x = 513
p_min = -16.0
p_max = 16.0
n_p = 513

[times]
values = 0, 1, 2, 3, 4
""",
    "box-traversal": """
[geometry]
kind = box
a = 0.0
b = 10.0

[packet]
x0 = 5.0
p0 = 4.0
sigma = 0.6
mass = 1.0

[grid]
x_min = -26.0
x_max = 26.0
n_x = 521
p_min = -12.0
p_max = 12.0
n_p = 513

[times]
values = 0, 0.625, 1.25, 1.875, 2.5
""",
    "disk-kernel": """
[geometry]
kind = billiard2d
radius = 1.0

[packet]
x0 = 0.0
p0 = 0.0
sigma = 0.3
mass = 1.0
""",
}

class _Key(NamedTuple):
    """One accepted config key: its parser, its default as INI text (None:
    the key is required) and its lower bound, inclusive for an integer
    and exclusive for a float."""

    parse: Callable[[str], object]
    default: str | None = None
    low: float | None = None


def _floats(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


def _outputs(raw: str) -> set[str]:
    outputs = {s.strip() for s in raw.split(",") if s.strip()}
    bad = outputs - {"fields", "marginals", "kernel", "report"}
    if bad:
        raise ValueError(f"unknown outputs {sorted(bad)}")
    return outputs


# Every accepted section and key. Within a section, keys follow the
# argument order of the object they build (PhaseGrid, GaussianPacket,
# the [run] fields of ScenarioConfig).
_CONFIG = {
    "geometry": {"kind": _Key(str), "a": _Key(float), "b": _Key(float),
                 "radius": _Key(float, low=0.0)},
    "packet": {"x0": _Key(float), "p0": _Key(float),
               "sigma": _Key(float, low=0.0), "mass": _Key(float, low=0.0)},
    "grid": {"x_min": _Key(float, "-24.0"), "x_max": _Key(float, "24.0"),
             "n_x": _Key(int, "513", 2),
             "p_min": _Key(float, "-16.0"), "p_max": _Key(float, "16.0"),
             "n_p": _Key(int, "513", 2)},
    "times": {"values": _Key(_floats, "0, 1, 2, 3, 4")},
    "run": {"outputs": _Key(_outputs, "fields,marginals,report"),
            "n_modes": _Key(int, "64", 1)},
    "kernel2d": {"x_points": _Key(int, "3", 1), "x_half": _Key(float, "0.4"),
                 "n_p": _Key(int, "65", 1), "p_half": _Key(float, "2.0", 0.0)},
}


@dataclass
class ScenarioConfig:
    geometry: dict
    packet: GaussianPacket
    grid: PhaseGrid
    times: list[float]
    outputs: set[str]
    n_modes: int
    kernel2d: dict


def _halfline_extension(cfg: ScenarioConfig) -> tuple[ComplexWave, None]:
    """The odd extension phi(x) - phi(-x) on the grid axis, with no y cap."""
    g, grid = cfg.packet, cfg.grid
    require_inside(g, 0.0, np.inf)
    x = grid.x_axis()
    return ComplexWave(grid.x_min, grid.dx, grid.n_x,
                       g.amplitude(x, 0.0) - g.amplitude(-x, 0.0)), None


def _box_extension(cfg: ScenarioConfig) -> tuple[ComplexWave, float]:
    """Periodic odd-image extension of the packet, on an axis reaching
    half the y cap beyond the grid, plus that cap.

    The correlation of the image train is a ladder of rungs at multiples
    of L = b - a (start x0 at the box center to keep the ladder sparse);
    the cap is 3.5 L, the gap above the rung that shears into the walls
    within one traversal.
    """
    g, grid = cfg.packet, cfg.grid
    a, b = cfg.geometry["a"], cfg.geometry["b"]
    require_inside(g, a, b)
    L = b - a
    ycap = 3.5 * L
    pad = int(np.ceil((0.5 * ycap) / grid.dx)) + 2
    ax_min = grid.x_min - pad * grid.dx
    n_axis = grid.n_x + 2 * pad
    x = ax_min + grid.dx * np.arange(n_axis)
    reach = max(abs(x[0]), abs(x[-1])) + abs(g.x0) + 8.0 * g.sigma
    n_img = int(np.ceil(reach / (2.0 * L))) + 1
    values = np.zeros(n_axis, dtype=np.complex128)
    for n in range(-n_img, n_img + 1):
        values += g.amplitude(x + 2.0 * n * L, 0.0)
        values -= g.amplitude(2.0 * a - x + 2.0 * n * L, 0.0)
    return ComplexWave(ax_min, grid.dx, n_axis, values), ycap


class _Kind(NamedTuple):
    """A [geometry] kind: the keys it reads besides ``kind``, the (section,
    key) pairs it does not read (key "": the whole section); with dynamics,
    its t = 0 extension (packet-in-region check, then the wave and its y cap
    or None), its kernel, and its oracle wave at t on an (x_min, dx, n) axis."""

    keys: tuple[str, ...]
    unread: tuple[tuple[str, str], ...]
    extend: Callable[[ScenarioConfig], tuple[ComplexWave, float | None]] | None = None
    kernel: Callable[[PhaseGrid, dict], object] | None = None
    wave: Callable[..., ComplexWave] | None = None


# lambdas look library functions up when called, so wrappers set on module attributes run
_KINDS = {
    "halfline": _Kind((), (("kernel2d", ""), ("run", "n_modes")), _halfline_extension,
                      lambda grid, geo: boundary_kernels.halfline_kernel(grid),
                      lambda cfg, t, *axis: images_reflect(cfg.packet, t, *axis)),
    "box": _Kind(("a", "b"), (("kernel2d", ""),), _box_extension,
                 lambda grid, geo: boundary_kernels.interval_kernel(grid, geo["a"], geo["b"]),
                 lambda cfg, t, *axis: box_evolve(project_gaussian_to_box(
                     cfg.packet, cfg.geometry["a"], cfg.geometry["b"], cfg.n_modes), t, *axis)),
    # the disk reads no [packet] either, but it stays required: the benchmark's disk INI sets one
    "billiard2d": _Kind(("radius",), (("grid", ""), ("times", ""), ("run", ""))),
}


def _load_ini(text: str) -> configparser.ConfigParser:
    """Parse INI text; unknown sections and keys are errors, so a typo
    cannot silently fall back to a default."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in cp.sections():
        if section not in _CONFIG:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp.options(section)) - set(_CONFIG[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    return cp


def _get(cp: configparser.ConfigParser, section: str, key: str):
    """Parse ``[section] key`` (or its default); numbers must be finite and
    within the key's lower bound."""
    spec = _CONFIG[section][key]
    name = f"[{section}] {key}"
    raw = cp.get(section, key, fallback=spec.default)
    if raw is None:
        raise ConfigError(f"missing {name}")
    try:
        value = spec.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {name} = {raw!r}: {exc}") from exc
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not np.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
        if spec.low is None:
            continue
        strict = isinstance(v, float)
        if v < spec.low or (strict and v == spec.low):
            raise ConfigError(f"{name} must be {'>' if strict else '>='} "
                              f"{spec.low:g}, got {v:g}")
    return value


def _section(cp: configparser.ConfigParser, section: str) -> dict:
    return {key: _get(cp, section, key) for key in _CONFIG[section]}


def _fmt_t(t: float) -> str:
    """The file tag of time ``t``: 6 significant digits, ``m`` for a minus."""
    return f"{t:g}".replace("-", "m")


def _times(cp: configparser.ConfigParser) -> list[float]:
    """[times] values; two times that share a file tag would write the same
    files, the later silently replacing the earlier, so that is an error."""
    times = _get(cp, "times", "values")
    seen: dict[str, float] = {}
    for t in times:
        tag = _fmt_t(t)
        if tag in seen:
            raise ConfigError(f"[times] values {seen[tag]!r} and {t!r} share the "
                              f"file tag t{tag}")
        seen[tag] = t
    return times


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from INI text.

    Geometry and packet carry no defaults; everything else does. Input
    that the kind does not read, in [geometry] or elsewhere, is an error.
    """
    cp = _load_ini(text)
    kind = _get(cp, "geometry", "kind")
    if kind not in _KINDS:
        raise ConfigError(f"bad [geometry] kind = {kind!r}: must be halfline, box, or billiard2d")
    unread = set(cp.options("geometry")) - {"kind", *_KINDS[kind].keys}
    if unread:
        raise ConfigError(f"[geometry] kind = {kind} reads no {sorted(unread)}")
    for section, key in _KINDS[kind].unread:
        if cp.has_option(section, key) if key else cp.has_section(section):
            raise ConfigError(f"[geometry] kind = {kind} reads no [{section}] {key}".rstrip())
    geometry = {"kind": kind, **{key: _get(cp, "geometry", key) for key in _KINDS[kind].keys}}
    if "a" in geometry and geometry["a"] >= geometry["b"]:
        raise ConfigError("box needs a < b")

    packet = GaussianPacket(*_section(cp, "packet").values())
    grid = PhaseGrid(**_section(cp, "grid"))
    return ScenarioConfig(geometry, packet, grid, _times(cp),
                          kernel2d=_section(cp, "kernel2d"), **_section(cp, "run"))


def load_config(path: str | None, preset: str | None) -> ScenarioConfig:
    if (path is None) == (preset is None):
        raise ConfigError("provide exactly one of --config or --preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"choose from {sorted(PRESETS)}")
        return parse_config(PRESETS[preset])
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config(f.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def build_plan(cfg: ScenarioConfig) -> BoundedEvolutionPlan:
    """The scenario builder: free Wigner field of the kind's image-extended
    packet, its kernel, and the evolution plan joining them. The packet
    must start inside the region (``require_inside``) and its momentum
    density inside the grid's window (``require_in_window``). A capped
    extension (the box's image train) fills the window, so the shear
    support guard is off; wrapped content lands outside the box rows,
    which the kernel masks."""
    grid, g = cfg.grid, cfg.packet
    require_in_window(g, grid.p_min, grid.p_max)
    kind = _KINDS[cfg.geometry["kind"]]
    if kind.extend is None:
        raise ConfigError("dynamics is defined for halfline and box geometries only")
    psi, ycap = kind.extend(cfg)
    w0 = wigner_of(psi, grid, y_halfwidth=ycap)
    return BoundedEvolutionPlan(kind.kernel(grid, cfg.geometry), ShearParams(0.0, g.m), w0,
                                check_support=ycap is None)


_ORACLE_OVERSAMPLE = 8  # the oracle axis refines the grid's x step 8x


def _oracle_wave(cfg: ScenarioConfig, t: float) -> ComplexWave:
    """The wavefunction-space ground truth at time t on the oracle's
    oversampled axis: the image solution on the half line, the eigenmode
    evolution in the box."""
    grid, k = cfg.grid, _ORACLE_OVERSAMPLE
    axis = (grid.x_min, grid.dx / k, (grid.n_x - 1) * k + 1)
    return _KINDS[cfg.geometry["kind"]].wave(cfg, t, *axis)


def oracle_field(cfg: ScenarioConfig, t: float) -> WignerField:
    """Wigner transform of ``_oracle_wave``, computed on an oversampled axis
    so oracle error stays below method error."""
    return wigner_of(_oracle_wave(cfg, t), cfg.grid)


def run(cfg: ScenarioConfig, out_dir: str) -> int:
    """Execute the scenario and write artifacts; returns the exit code.
    Every frame is compared with ``oracle_field`` and its line printed. A
    frame fails when a NumericalGuardError fires in its evolution, writes
    or comparison (its line is then that message, its report row NaN, and
    the run goes on to the next time) or when its l2_rel is not below 1e-2.
    Once every frame and report.csv are written, the first failure in
    [times] order raises NumericalGuardError. ``report`` only adds
    report.csv."""
    os.makedirs(out_dir, exist_ok=True)
    if _KINDS[cfg.geometry["kind"]].extend is None:
        return run_billiard_kernel(cfg, out_dir)

    plan = build_plan(cfg)
    if "kernel" in cfg.outputs:
        write_kernel_csv(plan.kernel, os.path.join(out_dir, "kernel.csv"))
        write_kernel_binary(plan.kernel, os.path.join(out_dir, "kernel.bin"))
        print(f"wrote kernel files to {out_dir}")
    tail = kernel_tail_bound(plan.kernel, plan.initial)

    rows, failures = [], []
    for t in cfg.times:
        w = None  # the previous frame's field is freed before this one evolves
        try:
            w = evolve_bounded(plan, t)
            tag = f"t{_fmt_t(t)}"
            if "fields" in cfg.outputs:
                write_field_csv(w, os.path.join(out_dir, f"field_{tag}.csv"))
                write_field_binary(w, os.path.join(out_dir, f"field_{tag}.bin"))
            if "marginals" in cfg.outputs:
                for name, axis, dens in (("x", w.grid.x_axis(), marginal_x(w)),
                                         ("p", w.grid.p_axis(), marginal_p(w))):
                    write_csv(os.path.join(out_dir, f"marginal_{name}_{tag}.csv"),
                              (name, "density"), zip(axis, dens))
            cmp = compare_fields(w, oracle_field(cfg, t))
        except NumericalGuardError as exc:  # its text only: the traceback holds the arrays
            failures.append((t, str(exc)))
            rows.append((t, np.nan, np.nan, np.nan, tail))
            print(f"t={t:g}: {exc}")
            continue
        rows.append((t, cmp.l2_rel, cmp.max_abs, cmp.mass_diff, tail))
        print(f"t={t:g}: l2_rel={cmp.l2_rel:.3e} max_abs={cmp.max_abs:.3e} "
              f"mass_diff={cmp.mass_diff:.3e} kernel_tail_mass={tail:.3e}")
        if not cmp.l2_rel < 1e-2:  # a NaN fails too
            failures.append((t, f"l2_rel = {cmp.l2_rel:.3e} against the oracle is not below 1e-2"))

    if "report" in cfg.outputs:
        write_csv(os.path.join(out_dir, "report.csv"),
                  ("t", "l2_rel", "max_abs", "mass_diff", "kernel_tail_mass"), rows)
    if failures:
        raise NumericalGuardError("t=%g: %s" % failures[0])
    return 0


_DISK_N_Y = 441  # samples per disk y axis, over |y| <= 2.125 R


def _disk_indicator(cfg: ScenarioConfig):
    """The disk's set-up, shared by ``simulate`` and ``validate``: its shape
    indicator on the x >= 0 points of the ``[kernel2d]`` x axis, with 8x8
    subcells per y-cell and y axes over |y| <= 2.125 R (the support is
    |y| < 2R, so the sampling per radius is the preset's at any R), the
    whole x axis, the momentum axis, and the (p1, p2) grid of the slices.
    The x and momentum axes are made exactly odd, as the indicator's y
    axes are, so that ``run_billiard_kernel`` can mirror the x >= 0
    slices onto the others. ``billiard_indicator`` samples the y_1 >= 0
    half of each point's lattice, one point per thread.

    The sampled indicator's transform is 2 pi/dy periodic, so the slice
    grid's corner sqrt(2) p_half must lie below pi/dy."""
    R = cfg.geometry["radius"]
    k2 = cfg.kernel2d
    x_ax = np.linspace(-k2["x_half"], k2["x_half"], k2["x_points"])
    x_ax = 0.5 * (x_ax - x_ax[::-1])
    n_p, ph = k2["n_p"], k2["p_half"]
    p_ax = np.linspace(-ph, ph, n_p)
    p_ax = 0.5 * (p_ax - p_ax[::-1])
    grid_p = PhaseGrid(-ph, ph, n_p, -ph, ph, n_p)
    band = np.pi * (_DISK_N_Y - 1) / (4.25 * R)
    if np.sqrt(2.0) * ph >= band:
        raise ConfigError(f"[kernel2d] p_half = {ph:g} puts the slice corner "
                          f"sqrt(2) p_half at or beyond the indicator's band "
                          f"pi/dy = {band:.4g} (dy = 4.25 R / {_DISK_N_Y - 1})")
    y_ax = np.linspace(-2.125 * R, 2.125 * R, _DISK_N_Y)

    def disk(x1, x2):
        return (x1 / R)**2 + (x2 / R)**2

    quadrant = x_ax[len(x_ax) // 2:]
    ind = billiard_indicator(disk, [quadrant, quadrant], [y_ax, y_ax], subsamples=8)
    return ind, x_ax, p_ax, grid_p


def run_billiard_kernel(cfg: ScenarioConfig, out_dir: str) -> int:
    """Kernel-only mode for the 2-D disk billiard: no dynamics.

    Only the x >= 0 slices are sampled and transformed. The disk is
    symmetric under x_d -> -x_d, which reverses y_d in g(x, y) and so p_d
    in K(x, p); each other slice is written from its (|x1|, |x2|) slice
    with the p1 axis reversed where x1 < 0 and the p2 axis where x2 < 0,
    which on the exactly odd momentum axis is K at -p_d."""
    ind, x_ax, p_ax, grid_p = _disk_indicator(cfg)
    K = kernel_from_indicator(ind, [p_ax, p_ax])
    n, h = len(x_ax), len(x_ax) // 2
    for i, j in np.ndindex(n, n):
        k = K[max(i, n - 1 - i) - h, max(j, n - 1 - j) - h]
        meta = {"provenance": "numeric", "geometry":
                {"shape": "disk", "radius": cfg.geometry["radius"],
                 "x1": float(x_ax[i]), "x2": float(x_ax[j]), "axes": "p1,p2"}}
        path = os.path.join(out_dir, f"kernel2d_x{i}_{j}.csv")
        write_field_csv(WignerField(grid_p, k[::-1 if i < h else 1, ::-1 if j < h else 1]),
                        path, metadata=meta)
    print(f"wrote {n**2} disk kernel slices to {out_dir}")
    return 0


def demo_naive(cfg: ScenarioConfig, out_dir: str) -> int:
    """Side-by-side naive (masked shear) and convolution fields, with the
    wall-violation metric of each."""
    if cfg.geometry["kind"] != "halfline":
        raise ConfigError("demo-naive runs on the halfline geometry only")
    os.makedirs(out_dir, exist_ok=True)
    plan = build_plan(cfg)
    g = cfg.packet
    # the physical (wall-truncated) initial field seeds the naive evolution
    psi0 = images_reflect(g, 0.0, cfg.grid.x_min, cfg.grid.dx, cfg.grid.n_x)
    w0_naive = wigner_of(psi0, cfg.grid)
    rows = []
    for t in cfg.times:
        naive = naive_bounded_evolve(w0_naive, ShearParams(t, g.m))
        conv = evolve_bounded(plan, t)
        tag = f"t{_fmt_t(t)}"
        write_field_csv(naive, os.path.join(out_dir, f"naive_{tag}.csv"))
        write_field_csv(conv, os.path.join(out_dir, f"convolution_{tag}.csv"))
        rows.append((t, wall_violation_mass(naive), wall_violation_mass(conv)))
    write_csv(os.path.join(out_dir, "naive_violation.csv"),
              ("t", "naive_violation", "convolution_violation"), rows)
    for t, nv, cv in rows:
        print(f"t={t:g}: naive wall mass={nv:.3e}  convolution wall mass={cv:.3e}")
    return 0


def validate(cfg: ScenarioConfig) -> int:
    """Run the set-up of ``simulate`` without evolving: build the plan
    (the packet-in-region check, the transform's band check, the plan's
    p = 0, kernel-reach and symmetry checks), then check the oracle's
    preconditions at t = 0, as every ``simulate`` frame does. For the
    disk, build the kernel's axes and indicator as ``simulate`` does."""
    if _KINDS[cfg.geometry["kind"]].extend is None:
        _disk_indicator(cfg)
        print("ok: disk kernel settings within their bounds")
        return 0
    build_plan(cfg)
    print("ok: plan built (packet inside the region, p = 0 on the momentum "
          "axis, momentum window inside the band, kernel reach inside the "
          "alias-free band)")
    _oracle_wave(cfg, 0.0)
    print("ok: oracle wave built at t = 0 (the oracle's preconditions hold)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to an INI scenario config")
    sub.add_argument("--preset", help=f"built-in scenario: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--out", default="wignerwall_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wignerwall",
        description="Hard-wall Wigner dynamics via shear plus momentum "
                    "convolution (natural units, hbar = 1)")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (("simulate", "run a scenario and write artifacts"),
                            ("kernel", "write the boundary kernel only"),
                            ("validate", "validate a configuration"),
                            ("demo-naive", "contrast the naive masked shear "
                                           "with the convolution solution")):
        _add_common(sub.add_parser(name, help=help_text))
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset)
        if args.command == "simulate":
            return run(cfg, args.out)
        if args.command == "kernel":
            cfg.outputs, cfg.times = {"kernel"}, []
            return run(cfg, args.out)
        if args.command == "validate":
            return validate(cfg)
        return demo_naive(cfg, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # config files are read in load_config
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
