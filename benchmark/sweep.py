"""Repeat the benchmark over seeds, round-robin across workloads.

    python3 benchmark/sweep.py --seeds 1-10 [--workloads a,b] [--sets 2]
                               [--seconds S] [--trace 0]

Each round runs every workload once with the round's seed, in the
listed order on even rounds and reversed on odd rounds, so slow drift
of the machine's throughput spreads evenly over workloads instead of
landing on whichever ran last. ``--sets`` repeats the whole seed list.

Per workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median
and, with two or more sets, each set's median over the first set's.
``run_s`` also gets the highest percentile that has at least ten
``simulate`` samples beyond it, pooled over all runs. The table and
every run's summary are written to ``.bench_out/sweep-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90/p75/p50 with at least ten samples above it."""
    v = sorted(values)
    for q in (99, 90, 75, 50):
        k = int(len(v) * q / 100)
        if len(v) - k - 1 >= 10:
            return q, v[k]
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = args.workloads.split(",")
    seeds = _seeds(args.seeds)

    runs = []
    for set_no in range(args.sets):
        for i, seed in enumerate(seeds):
            order = names if (set_no * len(seeds) + i) % 2 == 0 else names[::-1]
            for name in order:
                t = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                wall = time.perf_counter() - t
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                summary = json.loads(proc.stdout.strip().splitlines()[-1])
                result = json.loads((ROOT / ".bench_out" / f"{name}-seed{seed}-trace"
                                     f"{args.trace}" / "result.json").read_text())
                runs.append({"set": set_no, "seed": seed, "workload": name,
                             "wall_s": wall, "summary": summary,
                             "run_s_samples": [s["wall_s"] for s in result["samples"]
                                               if s["kind"] == "simulate"],
                             "setup_s_samples": [s["wall_s"] for s in result["samples"]
                                                 if s["kind"] == "setup"]})
                print(f"set {set_no} seed {seed:3d} {name:20s} {wall:6.1f} s "
                      f"correct={summary['correct']} failed={summary['failed']}",
                      flush=True)

    table = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for key in mine[0]["summary"]["metrics"]:
            values = [r["summary"]["metrics"][key]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            row = {"median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med if med else float("nan")}
            if args.sets > 1:
                first = statistics.median(r["summary"]["metrics"][key]["value"]
                                          for r in mine if r["set"] == 0)
                row["set_ratio"] = [statistics.median(
                    r["summary"]["metrics"][key]["value"] for r in mine if r["set"] == k)
                    / first if first else float("nan") for k in range(args.sets)]
            table[f"{name}/{key}"] = row
        tail = tail_percentile([x for r in mine for x in r["run_s_samples"]])
        if tail:
            table[f"{name}/run_s"][f"p{tail[0]}"] = tail[1]
    for key, row in table.items():
        print(f"{key:50s} " + " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    out = ROOT / ".bench_out" / f"sweep-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                               "table": table, "runs": runs}, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
