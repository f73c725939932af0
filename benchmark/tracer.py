"""Traced run of `wignerwall simulate`: spans around every layer call,
recorded from outside the program.

Run as a child process of ``run.py --trace 1``:

    python -X importtime benchmark/tracer.py --workload NAME \
        --config scenario.ini --out DIR --spans spans.json

It times ``import wignerwall.cli``, wraps the public functions of each
module at the sites the program looks them up (module attributes, so a
call through the wrapper is a call the program makes), runs ``simulate``
through ``cli.main`` and writes the spans, kept in memory until then, as
JSON. A wrapped name that no longer exists, or a span the workload must
reach that records no call, raises ``TraceCoverageError`` and exits with
``COVERAGE_EXIT``: a refactor that bypasses an import site breaks the
benchmark instead of reporting 0 ms.

Counts (correlation cells, predicate evaluations, FFT points, CSV bytes)
are taken where the work happens. A counter runs after its span ends, so
its cost lands in the parent span and in ``trace.overhead_s``.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics; it needs no import of the program.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import time

COVERAGE_EXIT = 4


class TraceCoverageError(RuntimeError):
    """A wrapped name is gone, or a required span recorded zero calls."""


class Tracer:
    """In-memory span recorder. A span is the interval of one wrapped call,
    with the span that was open when it started as its parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._open[-1]["id"] if self._open else None}
            self.spans.append(rec)
            self._open.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                rec.update(counter(args, kwargs, result))
            return result
        return traced

    def count(self, key: str, amount: int) -> None:
        """Add to a count on the innermost open span."""
        if self._open:
            rec = self._open[-1]
            rec[key] = rec.get(key, 0) + amount

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        if not hasattr(owner, attr):
            where = owner.__name__ if inspect.ismodule(owner) else \
                f"{owner.__module__}.{owner.__name__}"
            raise TraceCoverageError(f"{where}.{attr} no longer exists; "
                                     "update the benchmark's wrapped names")
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))


class _CountingFFT:
    """Stand-in for the ``scipy.fft`` module at one import site: forwards
    every attribute and counts the points each transform call processes
    (transform length times the number of transforms)."""

    _TRANSFORMS = ("fft", "ifft", "rfft", "irfft")

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if attr not in self._TRANSFORMS:
            return fn

        def counted(x, n=None, axis=-1, *args, **kwargs):
            shape = x.shape
            if n is None:
                n = 2 * (shape[axis] - 1) if attr == "irfft" else shape[axis]
            self._tracer.count("fft_points", math.prod(shape) // shape[axis] * n)
            return fn(x, n, axis, *args, **kwargs)
        return counted


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer) -> None:
    """Wrap each layer at the module attribute the program calls through."""
    from wignerwall import (boundary_kernels, cli, convolution_engine,
                            free_evolution, wigner_transform)

    def corr_counts(args, kwargs, result):
        import numpy as np
        C = result[0]
        return {"cells": int(C.size), "nonzero": int(np.count_nonzero(C))}

    indicator = boundary_kernels.billiard_indicator

    def indicator_counts(args, kwargs, result):
        a = _bound(indicator, args, kwargs)
        nx = math.prod(len(ax) for ax in a["x_axes"])
        ny = math.prod(len(ax) for ax in a["y_axes"])
        s = a["subsamples"]
        shifts = s ** len(a["x_axes"]) if s > 1 else 1
        # one B on the x grid, then B(x - y/2) and B(x + y/2) per subcell
        return {"evals": nx + 2 * shifts * nx * ny}

    def csv_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}

    for attr, name, counter in (
            ("run", "cli.run", None),
            ("build_plan", "cli.build_plan", None),
            ("oracle_field", "cli.oracle_field", None),
            ("evolve_bounded", "convolution_engine.evolve_bounded", None),
            ("wigner_of", "wigner_transform.wigner_of", None),
            ("images_reflect", "oracle.images_reflect", None),
            ("box_evolve", "oracle.box_evolve", None),
            ("project_gaussian_to_box", "oracle.project_gaussian_to_box", None),
            ("compare_fields", "oracle.compare_fields", None),
            ("billiard_indicator", "boundary_kernels.billiard_indicator", indicator_counts),
            ("kernel_from_indicator", "boundary_kernels.kernel_from_indicator", None),
            ("write_field_csv", "phase_grid.write_field_csv", csv_bytes),
            ("write_field_binary", "phase_grid.write_field_binary", None)):
        tracer.patch(cli, attr, name, counter)
    tracer.patch(convolution_engine, "wigner_of", "wigner_transform.wigner_of")
    tracer.patch(convolution_engine, "shear_evolve", "free_evolution.shear_evolve")
    tracer.patch(convolution_engine.BoundedEvolutionPlan, "__post_init__",
                 "convolution_engine.BoundedEvolutionPlan")
    if not hasattr(convolution_engine, "sfft"):
        raise TraceCoverageError("wignerwall.convolution_engine.sfft no longer exists")
    convolution_engine.sfft = _CountingFFT(convolution_engine.sfft, tracer)
    tracer.patch(wigner_transform, "correlation_matrix",
                 "wigner_transform.correlation_matrix", corr_counts)
    tracer.patch(wigner_transform, "fourier_over_separation",
                 "wigner_transform.fourier_over_separation")
    tracer.patch(free_evolution, "map_coordinates", "free_evolution.map_coordinates")
    tracer.patch(boundary_kernels, "halfline_kernel", "boundary_kernels.halfline_kernel")
    tracer.patch(boundary_kernels, "interval_kernel", "boundary_kernels.interval_kernel")
    tracer.patch(boundary_kernels.BoundaryKernel, "rows_at", "boundary_kernels.rows_at")


# (span, parent span) pairs each workload must reach at least once
_DYNAMIC = [
    ("cli.build_plan", "cli.run"),
    ("wigner_transform.wigner_of", "cli.build_plan"),
    ("wigner_transform.correlation_matrix", "wigner_transform.wigner_of"),
    ("wigner_transform.fourier_over_separation", "wigner_transform.wigner_of"),
    ("convolution_engine.BoundedEvolutionPlan", "cli.build_plan"),
    ("boundary_kernels.rows_at", "convolution_engine.BoundedEvolutionPlan"),
    ("convolution_engine.evolve_bounded", "cli.run"),
    ("free_evolution.shear_evolve", "convolution_engine.evolve_bounded"),
]
_ORACLE = [
    ("cli.oracle_field", "cli.run"),
    ("wigner_transform.wigner_of", "cli.oracle_field"),
    ("oracle.compare_fields", "cli.run"),
]
REQUIRED = {
    "halfline-artifacts": _DYNAMIC + _ORACLE + [
        ("boundary_kernels.halfline_kernel", "cli.build_plan"),
        ("oracle.images_reflect", "cli.oracle_field"),
        ("phase_grid.write_field_csv", "cli.run"),
        ("phase_grid.write_field_binary", "cli.run")],
    "box-oracle": _DYNAMIC + _ORACLE + [
        ("boundary_kernels.interval_kernel", "cli.build_plan"),
        ("oracle.project_gaussian_to_box", "cli.oracle_field"),
        ("oracle.box_evolve", "cli.oracle_field"),
        ("free_evolution.map_coordinates", "free_evolution.shear_evolve")],
    "disk-kernel": [
        ("boundary_kernels.billiard_indicator", "cli.run"),
        ("boundary_kernels.kernel_from_indicator", "cli.run"),
        ("phase_grid.write_field_csv", "cli.run")],
}


def check_coverage(workload: str, spans: list[dict]) -> None:
    """Raise TraceCoverageError when a required span recorded no call."""
    names = {s["id"]: s["name"] for s in spans}
    seen = {(s["name"], names.get(s["parent"])) for s in spans}
    missing = [f"{name} under {parent}" for name, parent in REQUIRED[workload]
               if (name, parent) not in seen]
    if workload != "disk-kernel" and not any(s.get("fft_points") for s in spans):
        missing.append("scipy.fft calls through convolution_engine.sfft")
    if missing:
        raise TraceCoverageError(f"{workload}: zero calls recorded for "
                                 + "; ".join(missing))


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run's spans
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile; 0 for a span with no calls."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


LAYER_METRICS = (
    "cli.import_ms", "cli.import_scipy_signal_ms", "cli.build_plan_ms",
    "cli.oracle_field_ms_p50", "cli.oracle_field_ms_p90", "cli.run_self_ms",
    "wigner_transform.wigner_of_setup_ms", "wigner_transform.wigner_of_oracle_ms_p50",
    "wigner_transform.wigner_of_oracle_ms_p90", "wigner_transform.correlation_ms",
    "wigner_transform.fourier_ms", "wigner_transform.corr_cells",
    "wigner_transform.corr_nonzero_frac",
    "oracle.wave_ms_p50", "oracle.wave_ms_p90", "oracle.project_ms",
    "oracle.project_calls", "oracle.compare_ms_p50", "oracle.compare_ms_p90",
    "boundary_kernels.kernel_ms", "boundary_kernels.rows_at_ms",
    "boundary_kernels.indicator_ms", "boundary_kernels.indicator_evals",
    "boundary_kernels.transform_ms",
    "free_evolution.shear_ms_p50", "free_evolution.shear_ms_p90",
    "free_evolution.cubic_frac",
    "convolution_engine.evolve_ms_p50", "convolution_engine.evolve_ms_p90",
    "convolution_engine.convolve_ms_p50", "convolution_engine.convolve_ms_p90",
    "convolution_engine.fft_points", "convolution_engine.plan_ms",
    "phase_grid.csv_ms_p50", "phase_grid.csv_ms_p90", "phase_grid.csv_bytes",
    "phase_grid.bin_ms_p50", "phase_grid.bin_ms_p90",
)


def layer_unit(key: str) -> str:
    return ("ms" if "_ms" in key else "ratio" if key.endswith("_frac")
            else "bytes" if key.endswith("_bytes") else "count")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced run (times in ms).

    ``trace`` is the JSON a traced child writes: ``spans``, ``import_ms``
    and ``scipy_signal_import_ms``. Per-frame spans report p50 and p90
    over their calls; once-per-run spans report their total.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def ms(s):
        return 1e3 * (s["end"] - s["start"])

    def self_ms(s):
        # children run inside their parent one after another, so the part
        # of the interval they cover is the sum of their durations
        return ms(s) - sum(ms(c) for c in children.get(s["id"], []))

    def select(name, parent=None):
        return [s for s in spans if s["name"] == name and (
            parent is None or (s["parent"] is not None
                               and by_id[s["parent"]]["name"] == parent))]

    def total(name, parent=None):
        return sum(ms(s) for s in select(name, parent))

    m: dict[str, float] = {}

    def per_frame(key, values):
        m[key + "_p50"] = _percentile(values, 50)
        m[key + "_p90"] = _percentile(values, 90)

    m["cli.import_ms"] = trace["import_ms"]
    m["cli.import_scipy_signal_ms"] = trace["scipy_signal_import_ms"]
    m["cli.build_plan_ms"] = total("cli.build_plan")
    per_frame("cli.oracle_field_ms", [ms(s) for s in select("cli.oracle_field")])
    m["cli.run_self_ms"] = sum(self_ms(s) for s in select("cli.run"))

    m["wigner_transform.wigner_of_setup_ms"] = total("wigner_transform.wigner_of",
                                                     "cli.build_plan")
    per_frame("wigner_transform.wigner_of_oracle_ms",
              [ms(s) for s in select("wigner_transform.wigner_of", "cli.oracle_field")])
    m["wigner_transform.correlation_ms"] = total("wigner_transform.correlation_matrix")
    m["wigner_transform.fourier_ms"] = total("wigner_transform.fourier_over_separation")
    corr = select("wigner_transform.correlation_matrix")
    cells = sum(s["cells"] for s in corr)
    m["wigner_transform.corr_cells"] = cells
    m["wigner_transform.corr_nonzero_frac"] = (
        sum(s["nonzero"] for s in corr) / cells if cells else 0.0)

    per_frame("oracle.wave_ms", [ms(s) for s in select("oracle.images_reflect")
                                 + select("oracle.box_evolve")])
    project = select("oracle.project_gaussian_to_box")
    m["oracle.project_ms"] = sum(ms(s) for s in project)
    m["oracle.project_calls"] = len(project)
    per_frame("oracle.compare_ms", [ms(s) for s in select("oracle.compare_fields")])

    m["boundary_kernels.kernel_ms"] = (total("boundary_kernels.halfline_kernel")
                                       + total("boundary_kernels.interval_kernel"))
    m["boundary_kernels.rows_at_ms"] = total("boundary_kernels.rows_at")
    m["boundary_kernels.indicator_ms"] = total("boundary_kernels.billiard_indicator")
    m["boundary_kernels.indicator_evals"] = sum(
        s["evals"] for s in select("boundary_kernels.billiard_indicator"))
    m["boundary_kernels.transform_ms"] = total("boundary_kernels.kernel_from_indicator")

    shears = select("free_evolution.shear_evolve")
    per_frame("free_evolution.shear_ms", [ms(s) for s in shears])
    m["free_evolution.cubic_frac"] = (
        len(select("free_evolution.map_coordinates", "free_evolution.shear_evolve"))
        / len(shears) if shears else 0.0)

    evolves = select("convolution_engine.evolve_bounded")
    per_frame("convolution_engine.evolve_ms", [ms(s) for s in evolves])
    per_frame("convolution_engine.convolve_ms", [self_ms(s) for s in evolves])
    m["convolution_engine.fft_points"] = _percentile(
        [s.get("fft_points", 0) for s in evolves], 50)
    m["convolution_engine.plan_ms"] = total("convolution_engine.BoundedEvolutionPlan")

    csvs = select("phase_grid.write_field_csv")
    per_frame("phase_grid.csv_ms", [ms(s) for s in csvs])
    m["phase_grid.csv_bytes"] = sum(s["bytes"] for s in csvs)
    per_frame("phase_grid.bin_ms", [ms(s) for s in select("phase_grid.write_field_binary")])
    return m


def scipy_signal_import_ms(importtime_log: str) -> float:
    """Cumulative import time of scipy.signal from ``-X importtime`` output;
    0 when the run never imported it."""
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "scipy.signal":
            return int(line.split("|")[1]) / 1e3
    return 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REQUIRED))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from wignerwall import cli
    import_ms = 1e3 * (time.perf_counter() - t0)
    tracer = Tracer()
    try:
        install(tracer)
    except TraceCoverageError as exc:
        print(f"TraceCoverageError: {exc}", file=sys.stderr)
        return COVERAGE_EXIT
    code = cli.main(["simulate", "--config", args.config, "--out", args.out])
    with open(args.spans, "w", encoding="utf-8") as f:
        json.dump({"exit_code": code, "import_ms": import_ms, "spans": tracer.spans}, f)
    if code == 0:
        try:
            check_coverage(args.workload, tracer.spans)
        except TraceCoverageError as exc:
            print(f"TraceCoverageError: {exc}", file=sys.stderr)
            return COVERAGE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
