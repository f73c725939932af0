#!/usr/bin/env bash
# Runs the CLI of one source tree on every parity command and keeps what
# each one printed.
#
#   .github/scripts/run_cli.sh TREE OUT RECORD
#
# Runs each command of cli_runs.txt next to this script (`simulate`,
# `kernel` and `validate` on the three presets, and `demo-naive` on
# halfline-bounce), then `simulate --config` on each guard_configs/*.ini
# next to it (runs in which a guard or the l2_rel verdict fires, so they
# exit 3), with TREE/src on PYTHONPATH and stdin from /dev/null. Every
# command runs from OUT with relative paths: a command NAME (`simulate-
# halfline-bounce`, or `guard-` and the config's name) writes its
# artifacts to OUT/NAME and its stdout, stderr and exit code to
# OUT/NAME.stdout, OUT/NAME.stderr and OUT/NAME.exit. Its peak resident
# set (the child's ru_maxrss, KiB on Linux), wall seconds and CPU seconds
# (the child's ru_utime + ru_stime, all of its threads) are appended to
# RECORD as "NAME<TAB>KiB<TAB>seconds<TAB>CPU seconds": CPU far above wall
# shows a thread that spins. TREE and OUT may be relative;
# RECORD's directory must exist. The environment passes through, so
# PYTHONDEVMODE and PYTHONWARNINGS reach every command. Exits 0 whatever
# the commands' codes are; they are in the .exit files.
set -uo pipefail

tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
record=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
scripts=$(cd "$(dirname "$0")" && pwd)

# runs the CLI with the given arguments as a child process, appends
# "<name>\t<its ru_maxrss>\t<its wall seconds>\t<its CPU seconds>" to the
# record file and exits with its code
measure='import resource, subprocess, sys, time
record, name, args = sys.argv[1], sys.argv[2], sys.argv[3:]
start = time.perf_counter()
code = subprocess.call([sys.executable, "-m", "wignerwall.cli", *args])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(record, "a") as f:
    f.write(f"{name}\t{usage.ru_maxrss}\t{wall:.3f}\t{usage.ru_utime + usage.ru_stime:.3f}\n")
sys.exit(code)'

run() {  # $1 = name, then the CLI's arguments
    local name=$1
    shift
    PYTHONPATH="$tree/src" python -c "$measure" "$record" "$name" "$@" --out "$name" \
        >"$name.stdout" 2>"$name.stderr" </dev/null
    echo "$?" >"$name.exit"
}

cd "$out" || exit 1
while read -r command preset; do
    run "$command-$preset" "$command" --preset "$preset"
done <"$scripts/cli_runs.txt"
for config in "$scripts"/guard_configs/*.ini; do
    run "guard-$(basename "$config" .ini)" simulate --config "$config"
done
exit 0
