#!/usr/bin/env bash
# Byte-level parity of the CLI's artifacts between two source trees.
#
#   .github/scripts/artifact_parity.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Runs the commands listed in cli_runs.txt next to this script (`simulate`,
# `kernel` and `validate` on the three presets, and `demo-naive` on
# halfline-bounce) with the package of each tree, writing OUT_DIR/base and
# OUT_DIR/head.
# Both trees' src/ are byte-compiled first (`compileall`), so neither
# side's commands compile the package from source: with
# PYTHONDONTWRITEBYTECODE=1 a tree without __pycache__ would otherwise
# compile on every command, and that compile's allocations raise its peak
# resident set in the table below.
# Every command runs from its output root with relative paths, and its
# stdout, stderr and exit code are kept next to its artifacts. Exits non-zero when
# `diff -r` finds any difference between the two trees of outputs.
#
# For every field that differs, the largest change relative to the base
# field's peak, max|a - b| / max|a|, is printed after the diff: from the
# .bin file, or from the field CSV (`x,p,value` rows after an optional
# `#` metadata line) where there is no .bin twin, as for the disk kernel's
# slices. A CSV bound reads the printed 12 significant digits, so a
# change in the last digit shows as about 1e-13 of the peak. Like the
# table below, it is for reading only.
#
# Each command's peak resident set (the child's ru_maxrss, KiB on Linux)
# and wall seconds are recorded in OUT_DIR/rss, outside the diffed trees,
# and printed as one table at the end, with the head - base change of the
# peak in MiB. The table is for reading only (one
# run's seconds are noisy): it never fails the run. So are the last two
# lines: the total count of lines in the .py files under each tree's src/
# and its change, then the count of code lines, those that are not blank,
# not `#` comments and not module, class or function docstrings.
set -uo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$3
runs=$(cd "$(dirname "$0")" && pwd)/cli_runs.txt

# runs the CLI with the given arguments as a child process, appends
# "<name>\t<its ru_maxrss>\t<its wall seconds>" to the record file and
# exits with its code
measure='import resource, subprocess, sys, time
record, name, args = sys.argv[1], sys.argv[2], sys.argv[3:]
start = time.perf_counter()
code = subprocess.call([sys.executable, "-m", "wignerwall.cli", *args])
wall = time.perf_counter() - start
with open(record, "a") as f:
    f.write(f"{name}\t{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}\t{wall:.3f}\n")
sys.exit(code)'

# prints max|a - b| / max|a| for each field that differs between the two
# output roots: each .bin file, a 64-byte <6d2Q header (six float64 grid
# fields, then n_x and n_p), n_x * n_p float64 values and optional
# metadata, and each field CSV with no .bin twin
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
    print(f"{a_path.relative_to(base)}: max|a - b| / max|a| = {bound:.3e}")'

# prints the count of code lines in the .py files under the tree's src/:
# lines that are not blank, not `#` comments and not docstrings, which ast
# finds as the first statement of a module, class or function body
code_lines='import ast, sys
from pathlib import Path
count = 0
for path in Path(sys.argv[1], "src").rglob("*.py"):
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    count += sum(1 for i, line in enumerate(text.splitlines(), 1)
                 if i not in docstrings and line.strip() and not line.strip().startswith("#"))
print(count)'

run_tree() {  # $1 = source tree, $2 = output root, $3 = ru_maxrss record
    mkdir -p "$2"
    (
        cd "$2" || exit 1
        while read -r command preset; do
            name="$command-$preset"
            PYTHONPATH="$1/src" python -c "$measure" "$3" "$name" "$command" \
                --preset "$preset" --out "$name" >"$name.stdout" 2>"$name.stderr"
            echo "$?" >"$name.exit"
        done <"$runs"
    )
}

python -m compileall -q "$base/src" "$head/src"
rm -rf "$out/base" "$out/head" "$out/rss"
mkdir -p "$out/rss"
run_tree "$base" "$out/base" "$out/rss/base.tsv"
run_tree "$head" "$out/head" "$out/rss/head.tsv"
diff -r "$out/base" "$out/head" && echo "artifact parity: identical"
status=$?
python -c "$bounds" "$out/base" "$out/head"
echo "peak RSS (child ru_maxrss) and wall seconds per command:"
awk -F'\t' 'NR == FNR { b[$1] = $2; s[$1] = $3; next }
    FNR == 1 { printf "%-32s %10s %10s %10s %8s %8s\n", "command", "base MiB", "head MiB",
                      "head-base", "base s", "head s" }
    { printf "%-32s %10.1f %10.1f %+10.2f %8.2f %8.2f\n", $1, b[$1] / 1024, $2 / 1024,
             ($2 - b[$1]) / 1024, s[$1], $3 }' \
    "$out/rss/base.tsv" "$out/rss/head.tsv"
src_lines() { find "$1/src" -name '*.py' -exec cat {} + | wc -l; }
base_lines=$(src_lines "$base")
head_lines=$(src_lines "$head")
printf 'src/ lines: base %d, head %d (%+d)\n' "$base_lines" "$head_lines" \
    "$((head_lines - base_lines))"
base_code=$(python -c "$code_lines" "$base")
head_code=$(python -c "$code_lines" "$head")
printf 'src/ code lines: base %d, head %d (%+d)\n' "$base_code" "$head_code" \
    "$((head_code - base_code))"
exit $status
