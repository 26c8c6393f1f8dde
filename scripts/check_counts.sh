#!/bin/sh
# Identity check of perfbench's non-timing metrics against a revision.
#
# Usage: check_counts.sh REV [SEED] [--allow NAME]...
#
# Builds perfbench/main.exe twice, each with its own dune build
# directory under one `mktemp -d`: once from REV (exported there with
# `git archive`) and once from the working tree. Then runs every
# workload of BENCHMARK.json for 1 s at SEED (default 11) on each side,
# once at --trace 0 (end-to-end metrics) and once at --trace 1 (the
# per-layer ledger). Of each run's "NAME VALUE UNIT" metric lines it
# drops the timings (names ending in _s, _us_p50, _us_p99 or
# overhead_x, and unattributed_share; updates_per_s ends in _s) and
# compares every other line: counts, ratios, lag, frames, retained
# memory. It prints each differing metric and exits 1 when any differs
# whose name was not passed with --allow (allowed differences are
# printed too). Everything it builds is removed on exit; perfbench/
# itself is only read.
#
# Each side builds with its own checkout's dune-workspace: a revision
# that has none (before the release profile became the default) builds
# in dune's dev profile, which compiles every library module with
# -opaque. Only timings depend on the profile, and they are not compared.
set -eu

usage() {
  echo "usage: $0 REV [SEED] [--allow NAME]..." >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
seed=11
if [ $# -gt 0 ] && [ "$1" != --allow ]; then
  seed=$1
  shift
fi
allow=
while [ $# -gt 0 ]; do
  [ "$1" = --allow ] && [ $# -ge 2 ] || usage
  allow="$allow $2"
  shift 2
done

root=$(git rev-parse --show-toplevel)
workloads=$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# The shared dune cache lives outside the checkouts: keep it off.
build() { # SRC BUILD_DIR
  DUNE_CACHE=disabled dune build --root "$1" --build-dir "$2" \
    ./perfbench/main.exe >&2
}
build "$tmp/base" "$tmp/build-base"
build "$root" "$tmp/build-new"

# One run from SRC with the executable under BUILD_DIR; writes its
# non-timing metric lines to OUT.
counts() { # SRC BUILD_DIR WORKLOAD TRACE OUT
  if ! (cd "$1" && "$2/default/perfbench/main.exe" --workload "$3" \
    --seed "$seed" --seconds 1 --trace "$4") > "$5.raw"; then
    echo "check_counts: $3 --trace $4 failed in $1" >&2
    exit 1
  fi
  awk 'NF == 3 && $1 ~ /^[a-z][a-z0-9_.-]*$/' "$5.raw" \
    | grep -Ev '^[^ ]*(_s|_us_p50|_us_p99|overhead_x|unattributed_share) ' \
    > "$5" || true
}

status=0
for workload in $workloads; do
  for trace in 0 1; do
    counts "$tmp/base" "$tmp/build-base" "$workload" "$trace" "$tmp/base.txt"
    counts "$root" "$tmp/build-new" "$workload" "$trace" "$tmp/new.txt"
    python3 - "$tmp/base.txt" "$tmp/new.txt" "$rev" "$workload" "$trace" "$allow" <<'EOF' || status=1
import sys

base_path, new_path, rev, workload, trace, allow = sys.argv[1:]
allowed = set(allow.split())

def metrics(path):
    return {line.split()[0]: line.split()[1] for line in open(path)}

base, new = metrics(base_path), metrics(new_path)
if not base:
    sys.exit(f"check_counts: {workload} --trace {trace} printed no metric line")
failed = False
lines = 0
for name in sorted(base.keys() | new.keys()):
    b, n = base.get(name, "missing"), new.get(name, "missing")
    lines += 1
    if b != n:
        tag = "allowed" if name in allowed else "DIFFERS"
        failed = failed or name not in allowed
        print(f"{workload} --trace {trace}: {name} {rev} {b}, working tree {n} ({tag})")
print(f"{workload} --trace {trace}: {lines} metric lines compared")
sys.exit(1 if failed else 0)
EOF
  done
done
exit $status
