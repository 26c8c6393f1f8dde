#!/bin/sh
# Paired perfbench comparison of the working tree against a revision.
#
# Usage: perf_pairs.sh REV WORKLOAD SEED PAIRS SECONDS [METRIC]
#
# Builds perfbench/main.exe twice, each with its own dune build
# directory under one `mktemp -d`: once from REV (exported there with
# `git archive`) and once from the working tree. Then runs PAIRS pairs
# of untraced `--seconds SECONDS` runs of WORKLOAD at SEED, alternating
# which side runs first, and prints each pair's METRIC (an end-to-end
# metric of BENCHMARK.json, updates_per_s by default), each side's
# median and quartiles, and how many pairs the working tree won. A pair
# is won in the direction BENCHMARK.json gives for METRIC (higher or
# lower is better). A gain counts when the working tree wins nearly
# every pair and its median beats the revision's by more than the
# revision's interquartile spread. Everything it builds is removed on
# exit; perfbench/ itself is only read.
#
# Each side builds with its own checkout's dune-workspace: a revision
# that has none (before the release profile became the default) builds
# in dune's dev profile, which compiles every library module with
# -opaque, so its rates are those of unoptimised cross-module calls.
set -eu

if [ $# -ne 5 ] && [ $# -ne 6 ]; then
  echo "usage: $0 REV WORKLOAD SEED PAIRS SECONDS [METRIC]" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 seconds=$5 metric=${6:-updates_per_s}

root=$(git rev-parse --show-toplevel)

# "higher" or "lower": the direction in which METRIC improves.
better=$(python3 -c '
import json, sys
path, metric = sys.argv[1:]
for m in json.load(open(path))["end_to_end"]:
    if m["name"] == metric:
        print(m["better"])
        break
else:
    sys.exit(f"perf_pairs: {metric} is not an end-to-end metric of {path}")
' "$root/BENCHMARK.json" "$metric")

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

# One untraced run from SRC with the executable under BUILD_DIR; prints
# its METRIC, read from the last line of standard output.
rate() { # SRC BUILD_DIR
  (cd "$1" && "$2/default/perfbench/main.exe" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 \
    | python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"][sys.argv[1]]["value"])' "$metric"
}

: > "$tmp/pairs"
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    base=$(rate "$tmp/base" "$tmp/build-base")
    new=$(rate "$root" "$tmp/build-new")
    first=base
  else
    new=$(rate "$root" "$tmp/build-new")
    base=$(rate "$tmp/base" "$tmp/build-base")
    first=new
  fi
  echo "$base $new" >> "$tmp/pairs"
  awk -v i="$i" -v f="$first" -v r="$rev" -v b="$base" -v n="$new" -v m="$metric" 'BEGIN {
    printf "pair %d (%s first): %s %s %.6g, working tree %.6g, ratio %.3f\n",
      i, f, m, r, b, n, n / b }'
  i=$((i + 1))
done

python3 - "$tmp/pairs" "$rev" "$workload" "$seed" "$metric" "$better" <<'EOF'
import statistics, sys

path, rev, workload, seed, metric, better = sys.argv[1:]
pairs = [tuple(map(float, line.split())) for line in open(path)]

def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

base = [b for b, _ in pairs]
new = [n for _, n in pairs]
bq1, bmed, bq3 = summary(base)
nq1, nmed, nq3 = summary(new)
# +1 when a larger value is better, -1 when a smaller one is.
sign = 1 if better == "higher" else -1
wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
print(f"{workload} seed {seed}, {metric} ({better} is better) over {len(pairs)} pairs")
print(f"  {rev}: median {bmed:.6g}, quartiles {bq1:.6g} .. {bq3:.6g}")
print(f"  working tree: median {nmed:.6g}, quartiles {nq1:.6g} .. {nq3:.6g}")
print(f"  median ratio {nmed / bmed:.3f}x; working tree won {wins}/{len(pairs)};"
      f" median gain {sign * (nmed - bmed):.6g} vs {rev} IQR {bq3 - bq1:.6g}")
EOF
