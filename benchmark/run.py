"""wignerwall benchmark: end-to-end `simulate` runs and a traced per-layer run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` there (``python -m wignerwall.cli`` with ``src`` on PYTHONPATH).

Load model: closed loop, one client. Every sample is a fresh process and
the next starts after it exits. Runs keep the config default
``threads = 0`` (scipy.fft uses every core); nothing else runs meanwhile.

``--trace 0`` alternates, for ``--seconds``, a set-up sample (a fresh
interpreter that imports ``wignerwall.cli``, loads the config and builds
the plan; for the disk kernel only the import and the config) with a
``simulate`` sample, and reports the end-to-end metrics:

- ``run_s``: median wall time of ``simulate``, spawn to exit with every
  artifact written;
- ``setup_s``: median wall time of the set-up samples;
- ``peak_rss_mb``: median ``ru_maxrss`` of the ``simulate`` processes;
- ``ok_frac``: share of samples that exited 0 and passed the output
  check, 1 - fail_frac (a bounded metric must never be 0, fail_frac is);
- ``output_err``: the benchmark's own accuracy check of the written
  artifacts, relative: ``marginal_x_err`` on the dynamic workloads, and
  ``disk_kernel_err`` divided by the kernel's p = 0 value R^2/pi on the
  disk kernel (see checks.py).

``--trace 1`` alternates an untraced ``simulate`` with a traced one
(tracer.py) and reports the per-layer metrics, medians over the traced
runs, plus ``trace.overhead_s``, the traced minus the untraced median.

Every sample's artifacts are checked and digested (SHA-256) after it
exits, outside its timing. A sample that exits non-zero, misses an
artifact, exceeds a check limit or writes different bytes than the
first sample of the run counts as failed. Everything, including the
environment, the run order, each sample's check values (``marginal_x_err``,
``l2_rel_max``, ``disk_kernel_err``), the artifact digests, every metric's
sample count and ``fail_frac``, is written to
``.bench_out/<workload>-seed<N>-trace<T>/result.json``; the last line of
standard output is the summary JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, scenario

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_DEADLINE_S = 160.0

SETUP_CODE = """\
import sys
import wignerwall.cli as cli
cfg = cli.load_config(sys.argv[1], None)
if cfg.geometry["kind"] != "billiard2d":
    cli.build_plan(cfg)
"""


class Sampler:
    """Runs one workload's child processes and records every sample."""

    def __init__(self, sc, work: Path) -> None:
        self.sc = sc
        self.work = work
        self.ini = work / "scenario.ini"
        self.ini.write_text(sc.ini, encoding="utf-8")
        self.out = work / "out"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.t0 = time.perf_counter()
        # every child ends in time for the whole run to exit within 180 s
        self.deadline = self.t0 + CHILD_DEADLINE_S
        self.samples: list[dict] = []
        self.reference_digests: dict[str, str] | None = None

    def _spawn(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MiB) of one child. A child
        still running at the run's deadline is killed (exit code -9)."""
        with open(log, "w", encoding="utf-8") as f:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=f, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def _record(self, kind: str, wall: float, code: int, rss: float, **extra) -> dict:
        rec = {"order": len(self.samples), "kind": kind,
               "start_s": round(time.perf_counter() - self.t0 - wall, 3),
               "wall_s": wall, "exit_code": code, "peak_rss_mb": rss,
               "failure": None if code == 0 else f"exit code {code}", **extra}
        self.samples.append(rec)
        return rec

    def setup(self) -> dict:
        wall, code, rss = self._spawn([sys.executable, "-c", SETUP_CODE, str(self.ini)],
                                      self.work / "setup.log")
        return self._record("setup", wall, code, rss)

    def simulate(self, traced: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        n = len(self.samples)
        if traced:
            spans = self.work / f"spans-{n}.json"
            argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "tracer.py"),
                    "--workload", self.sc.workload.name, "--config", str(self.ini),
                    "--out", str(self.out), "--spans", str(spans)]
        else:
            argv = [sys.executable, "-m", "wignerwall.cli", "simulate",
                    "--config", str(self.ini), "--out", str(self.out)]
        log = self.work / f"{'traced' if traced else 'simulate'}-{n}.log"
        wall, code, rss = self._spawn(argv, log)
        if code == tracer.COVERAGE_EXIT and traced:
            raise tracer.TraceCoverageError(log.read_text(encoding="utf-8").strip()
                                            .splitlines()[-1]
                                            .removeprefix("TraceCoverageError: "))
        rec = self._record("traced" if traced else "simulate", wall, code, rss)
        if traced:
            rec["spans"] = str(spans)
            rec["log"] = str(log)
        if code == 0:
            self._check(rec)
        return rec

    def _check(self, rec: dict) -> None:
        try:
            rec["checks"] = checks.check_outputs(self.sc, str(self.out))
        except (checks.CheckFailed, OSError, ValueError) as exc:
            rec["failure"] = f"output check: {exc}"
            return
        problems = checks.over_limit(self.sc, rec["checks"])
        if problems:
            rec["failure"] = "output check: " + "; ".join(problems)
            return
        digests = checks.digests(str(self.out))
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                             if digests.get(k) != self.reference_digests.get(k))
            rec["failure"] = f"artifacts differ from the first run: {changed[:5]}"


def environment(sc, seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu_model,
        "caches": caches, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # threads = 0 -> workers = -1 -> scipy.fft runs os.cpu_count() workers
        "fft_workers": os.cpu_count(),
        "git_commit": commit, "seed": seed, "workload": sc.workload.name,
        "scenario": sc.params,
    }


def _metric(values: list[float], unit: str) -> dict:
    """Median of the samples, with its unit and sample count."""
    return {"value": statistics.median(values) if values else float("nan"),
            "unit": unit, "samples": len(values)}


def alternate(seconds: float, first, second) -> None:
    """Run ``first`` and ``second`` as pairs, in alternating order, for
    ``seconds``. A pair starts while half a pair of the last pair's length
    still fits, so a run ends, on average, at its time."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + last / 2 <= seconds:
        t = time.perf_counter()
        for step in ((first, second) if i % 2 == 0 else (second, first)):
            step()
        last = time.perf_counter() - t
        i += 1


def untraced(s: Sampler, seconds: float) -> dict:
    alternate(seconds, s.setup, s.simulate)
    runs = [r for r in s.samples if r["kind"] == "simulate"]
    setups = [r for r in s.samples if r["kind"] == "setup"]
    failed = sum(r["failure"] is not None for r in s.samples)
    errs = []
    for r in runs:
        c = r.get("checks", {})
        if "disk_kernel_err" in c:
            errs.append(c["disk_kernel_err"] / (s.sc.params["radius"] ** 2 / math.pi))
        elif "marginal_x_err" in c:
            errs.append(c["marginal_x_err"])
    return {
        "run_s": _metric([r["wall_s"] for r in runs], "s"),
        "setup_s": _metric([r["wall_s"] for r in setups], "s"),
        "peak_rss_mb": _metric([r["peak_rss_mb"] for r in runs], "MiB"),
        "ok_frac": {"value": 1.0 - failed / len(s.samples), "unit": "ratio",
                    "samples": len(s.samples)},
        "output_err": _metric(errs, "ratio"),
    }


def traced(s: Sampler, seconds: float) -> dict:
    alternate(seconds, s.simulate, lambda: s.simulate(traced=True))
    per_run = []
    for r in s.samples:
        if r["kind"] != "traced" or r["failure"] is not None:
            continue
        with open(r["spans"], encoding="utf-8") as f:
            trace = json.load(f)
        with open(r["log"], encoding="utf-8") as f:
            trace["scipy_signal_import_ms"] = tracer.scipy_signal_import_ms(f.read())
        per_run.append(tracer.layer_metrics(trace))
    metrics = {key: _metric([m[key] for m in per_run], tracer.layer_unit(key))
               for key in tracer.LAYER_METRICS}
    walls = {k: [r["wall_s"] for r in s.samples if r["kind"] == k and r["failure"] is None]
             for k in ("simulate", "traced")}
    overhead = _metric(walls["traced"], "s")["value"] - _metric(walls["simulate"], "s")["value"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                   "samples": len(walls["traced"])}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wignerwall" / "cli.py").is_file():
        print(f"error: no wignerwall source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    sc = scenario(args.workload, args.seed)
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # users pay bytecode compilation once per install, not per run
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    s = Sampler(sc, work)
    try:
        metrics = (traced if args.trace else untraced)(s, args.seconds)
    except tracer.TraceCoverageError as exc:
        print(f"TraceCoverageError: {exc}", file=sys.stderr)
        return 1

    failed = sum(r["failure"] is not None for r in s.samples)
    summary = {
        "correct": failed == 0 and s.reference_digests is not None,
        "attempted": len(s.samples),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    result = {"environment": environment(sc, args.seed), "seconds": args.seconds,
              "trace": args.trace, "summary": summary, "metrics": metrics,
              "fail_frac": failed / len(s.samples),
              "samples": s.samples,
              "digests": s.reference_digests}
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    for r in s.samples:
        if r["failure"]:
            print(f"failed: {r['kind']} #{r['order']}: {r['failure']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
