#!/usr/bin/env bash
# Byte-level parity of the CLI's artifacts between two source trees.
#
#   .github/scripts/artifact_parity.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Runs the commands listed in cli_runs.txt next to this script (`simulate`
# and `validate` on the three presets, `kernel` on halfline-bounce and
# box-traversal, and `demo-naive` on halfline-bounce) with the package of
# each tree, writing OUT_DIR/base and OUT_DIR/head.
# Every command runs from its output root with relative paths, and its
# stdout, stderr and exit code are kept next to its artifacts. Exits non-zero when
# `diff -r` finds any difference between the two trees of outputs.
set -uo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$3
runs=$(cd "$(dirname "$0")" && pwd)/cli_runs.txt

run_tree() {  # $1 = source tree, $2 = output root
    mkdir -p "$2"
    (
        cd "$2" || exit 1
        while read -r command preset; do
            name="$command-$preset"
            PYTHONPATH="$1/src" python -m wignerwall.cli "$command" \
                --preset "$preset" --out "$name" >"$name.stdout" 2>"$name.stderr"
            echo "$?" >"$name.exit"
        done <"$runs"
    )
}

rm -rf "$out/base" "$out/head"
run_tree "$base" "$out/base"
run_tree "$head" "$out/head"
diff -r "$out/base" "$out/head" && echo "artifact parity: identical"
