#!/usr/bin/env bash
# Byte-level parity of the CLI's artifacts between two source trees.
#
#   .github/scripts/artifact_parity.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Runs every command of run_cli.sh next to this script (the commands in
# cli_runs.txt and `simulate --config` on each guard config, runs in
# which a guard or the l2_rel verdict fires, so they exit 3 and their
# messages are compared too) with the package of each tree, writing
# OUT_DIR/base and OUT_DIR/head. OUT_DIR may be relative.
# Both trees' src/ are byte-compiled first (`compileall`), so neither
# side's commands compile the package from source: with
# PYTHONDONTWRITEBYTECODE=1 a tree without __pycache__ would otherwise
# compile on every command, and that compile's allocations raise its peak
# resident set in the table below.
# Each command's stdout, stderr and exit code are kept next to its
# artifacts. Exits non-zero when `diff -r` finds any difference between
# the two trees of outputs.
#
# For every field that differs, the largest change relative to the base
# field's peak, max|a - b| / max|a|, is printed after the diff: from the
# .bin file, or from the field CSV (`x,p,value` rows after an optional
# `#` metadata line) where there is no .bin twin, as for the disk kernel's
# slices. A CSV bound reads the printed 12 significant digits, so a
# change in the last digit of a cell near the peak shows as 1e-12 to
# 1e-11 of the peak (3.1e-12 where the peak is 1/pi). For every
# other numeric CSV that differs (the marginals, report.csv), the largest
# change relative to its column's peak, max|a - b| / max|a| over the base
# file's rows, is printed with that column's name; NaN cells (a failed
# frame's report row) are skipped. Like the table below, these bounds are
# for reading only.
#
# Each command's peak resident set (the child's ru_maxrss, KiB on Linux),
# wall seconds and CPU seconds (user + system, all threads) are recorded
# in OUT_DIR/rss, outside the diffed trees, and printed as one table at
# the end, with the head - base change of the peak in MiB; CPU seconds far
# above wall seconds show a thread that spins. The table is for reading
# only (one run's seconds are noisy): it never fails the run. So is the
# tail: the total count of lines in the .py files under each tree's src/
# and its change, then the count of code lines, those that are not blank,
# not `#` comments and not module, class or function docstrings, per
# module (a module that only one tree has reads 0 in the other), so that
# a review sees where lines moved, and in total, then each tree's count of
# settable config values, the keys of `cli._CONFIG` over all sections.
# Before that tail, one table gives the traced peak of each stage of one
# in-process `cli.run` of each dynamic preset (halfline-bounce and
# box-traversal) at base and head: `build_plan`, `evolve_bounded`,
# `write_field_csv`, `oracle_field` and `compare_fields`, each the largest
# over its calls of the tracemalloc peak above the level at the call, and
# the whole run's; then those of one `cli.demo_naive` of halfline-bounce,
# the one command on the whole-field shear: `naive_bounded_evolve`,
# `evolve_bounded` and `write_field_csv`, and the whole command's. It
# shows which stage holds a run's peak; it is for reading only as well.
set -uo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
scripts=$(cd "$(dirname "$0")" && pwd)

# prints max|a - b| / max|a| for each field that differs between the two
# output roots: each .bin file, a 64-byte <6d2Q header (six float64 grid
# fields, then n_x and n_p), n_x * n_p float64 values and optional
# metadata, and each field CSV with no .bin twin; then, for each other
# numeric CSV that differs, the largest of those ratios over its columns
bounds='import struct, sys
from pathlib import Path
import numpy as np

def values(path):
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        lines = lines[1:] if lines[:1] and lines[0].startswith("#") else lines
        return np.loadtxt(lines[1:], delimiter=",", usecols=2, ndmin=1)
    raw = path.read_bytes()
    n_x, n_p = struct.unpack_from("<6d2Q", raw)[6:]
    return np.frombuffer(raw, "<f8", n_x * n_p, 64)

def is_field_csv(path):
    with path.open() as f:
        first = f.readline()
        return (f.readline() if first.startswith("#") else first).strip() == "x,p,value"

base, head = Path(sys.argv[1]), Path(sys.argv[2])
fields = [*base.rglob("*.bin"), *(path for path in base.rglob("*.csv")
                                  if not path.with_suffix(".bin").exists() and is_field_csv(path))]
for a_path in sorted(fields):
    b_path = head / a_path.relative_to(base)
    if not b_path.exists() or a_path.read_bytes() == b_path.read_bytes():
        continue
    a, b = values(a_path), values(b_path)
    bound = np.abs(a - b).max() / np.abs(a).max() if a.shape == b.shape else np.nan
    print(f"{a_path.relative_to(base)}: max|a - b| / max|a| = {bound:.3e}")

def table(path):
    lines = path.read_text().splitlines()
    lines = lines[1:] if lines[:1] and lines[0].startswith("#") else lines
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)

for a_path in sorted(path for path in base.rglob("*.csv") if not is_field_csv(path)):
    b_path = head / a_path.relative_to(base)
    if not b_path.exists() or a_path.read_bytes() == b_path.read_bytes():
        continue
    try:
        (names, a), (_, b) = table(a_path), table(b_path)
    except ValueError:  # not a numeric table
        continue
    if a.shape != b.shape or not a.size:
        bound, name = np.nan, "?"
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.fmax.reduce(np.abs(a - b), axis=0) / np.fmax.reduce(np.abs(a), axis=0)
        k = int(np.nanargmax(ratios)) if not np.isnan(ratios).all() else 0
        bound, name = ratios[k], names[k]
    print(f"{a_path.relative_to(base)}: max|a - b| / max|a| = {bound:.3e} (column {name})")'

# prints "<stage>\t<MiB>" for each wrapped stage argv[3:] of one call of
# the cli function argv[2] (run or demo_naive) on the preset argv[1], run
# in this process under tracemalloc: the largest peak of its calls above
# the level at each call, then the whole call's peak under its own name
# (the peak since each stage's reset is folded in before it resets)
stages='import contextlib, io, sys, tempfile, tracemalloc
from wignerwall import cli

command, names = sys.argv[2], sys.argv[3:]
peaks = {command: 0}

def traced(name, fn):
    def call(*args, **kwargs):
        level, peak = tracemalloc.get_traced_memory()
        peaks[command] = max(peaks[command], peak)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            peaks[name] = max(peaks.get(name, 0), peak - level)
            peaks[command] = max(peaks[command], peak)
    return call

for name in names:
    setattr(cli, name, traced(name, getattr(cli, name)))
cfg = cli.load_config(None, sys.argv[1])
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    tracemalloc.start()
    getattr(cli, command)(cfg, out)
    peaks[command] = max(peaks[command], tracemalloc.get_traced_memory()[1])
for name in (*names, command):
    print(f"{name}\t{peaks.get(name, 0) / 2**20:.2f}")'

# prints the count of code lines in the .py files under each of two
# trees' src/, per module and in total: lines that are not blank, not `#`
# comments and not docstrings, which ast finds as the first statement of
# a module, class or function body
code_lines='import ast, sys
from pathlib import Path

def counts(tree):
    out = {}
    for path in Path(tree, "src").rglob("*.py"):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        out[str(path.relative_to(Path(tree, "src")))] = sum(
            1 for i, line in enumerate(text.splitlines(), 1)
            if i not in docstrings and line.strip() and not line.strip().startswith("#"))
    return out

base, head = counts(sys.argv[1]), counts(sys.argv[2])
print("%-40s %6s %6s %10s" % ("src/ code lines per module", "base", "head", "head-base"))
for module in sorted(base.keys() | head.keys()):
    b, h = base.get(module, 0), head.get(module, 0)
    print("%-40s %6d %6d %+10d" % (module, b, h, h - b))
b, h = sum(base.values()), sum(head.values())
print("src/ code lines: base %d, head %d (%+d)" % (b, h, h - b))'

python -m compileall -q "$base/src" "$head/src"
rm -rf "$out/base" "$out/head" "$out/rss"
mkdir -p "$out/rss"
"$scripts/run_cli.sh" "$base" "$out/base" "$out/rss/base.tsv"
"$scripts/run_cli.sh" "$head" "$out/head" "$out/rss/head.tsv"
diff -r "$out/base" "$out/head" && echo "artifact parity: identical"
status=$?
python -c "$bounds" "$out/base" "$out/head"
echo "peak RSS (child ru_maxrss), wall seconds and CPU seconds per command:"
awk -F'\t' 'NR == FNR { b[$1] = $2; s[$1] = $3; c[$1] = $4; next }
    FNR == 1 { printf "%-32s %10s %10s %10s %8s %8s %8s %8s\n", "command", "base MiB",
                      "head MiB", "head-base", "base s", "head s", "base cpu", "head cpu" }
    { printf "%-32s %10.1f %10.1f %+10.2f %8.2f %8.2f %8.2f %8.2f\n", $1, b[$1] / 1024,
             $2 / 1024, ($2 - b[$1]) / 1024, s[$1], $3, c[$1], $4 }' \
    "$out/rss/base.tsv" "$out/rss/head.tsv"
echo "traced peak (tracemalloc, MiB) per stage of cli.run and cli.demo_naive:"
printf '%-16s %-22s %10s %10s %10s\n' preset stage "base MiB" "head MiB" head-base
run_stages="build_plan evolve_bounded write_field_csv oracle_field compare_fields"
while read -r preset command names; do
    for side in base head; do
        tree=$base
        [ "$side" = head ] && tree=$head
        # $names unquoted: one argument per stage name
        PYTHONPATH="$tree/src" python -c "$stages" "$preset" "$command" $names \
            >"$out/rss/stages-$side.tsv" </dev/null
    done
    awk -F'\t' -v preset="$preset" 'NR == FNR { b[$1] = $2; next }
        { printf "%-16s %-22s %10.2f %10.2f %+10.2f\n", preset, $1, b[$1], $2, $2 - b[$1] }' \
        "$out/rss/stages-base.tsv" "$out/rss/stages-head.tsv"
done <<EOF
halfline-bounce run $run_stages
box-traversal run $run_stages
halfline-bounce demo_naive naive_bounded_evolve evolve_bounded write_field_csv
EOF
src_lines() { find "$1/src" -name '*.py' -exec cat {} + | wc -l; }
base_lines=$(src_lines "$base")
head_lines=$(src_lines "$head")
printf 'src/ lines: base %d, head %d (%+d)\n' "$base_lines" "$head_lines" \
    "$((head_lines - base_lines))"
python -c "$code_lines" "$base" "$head"
config_keys() {
    PYTHONPATH="$1/src" python -c 'from wignerwall import cli
print(sum(map(len, cli._CONFIG.values())))'
}
printf 'settable config values: base %d, head %d\n' "$(config_keys "$base")" \
    "$(config_keys "$head")"
exit $status
