#!/bin/sh
# Paired perfbench comparison of the working tree against a revision.
#
# Usage: perf_pairs.sh REV WORKLOAD SEED PAIRS SECONDS
#
# Builds perfbench/main.exe twice, each with its own dune build
# directory under one `mktemp -d`: once from REV (exported there with
# `git archive`) and once from the working tree. Then runs PAIRS pairs
# of untraced `--seconds SECONDS` runs of WORKLOAD at SEED, alternating
# which side runs first, and prints each pair's updates_per_s, each
# side's median and quartiles, and how many pairs the working tree won.
# A gain counts when the working tree wins nearly every pair and its
# median beats the revision's by more than the revision's interquartile
# spread. Everything it builds is removed on exit; perfbench/ itself is
# only read.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 REV WORKLOAD SEED PAIRS SECONDS" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 seconds=$5

root=$(git rev-parse --show-toplevel)
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
# its updates_per_s, read from the last line of standard output.
rate() { # SRC BUILD_DIR
  (cd "$1" && "$2/default/perfbench/main.exe" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 \
    | python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["updates_per_s"]["value"])'
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
  awk -v i="$i" -v f="$first" -v r="$rev" -v b="$base" -v n="$new" 'BEGIN {
    printf "pair %d (%s first): %s %.1f, working tree %.1f, ratio %.3f\n",
      i, f, r, b, n, n / b }'
  i=$((i + 1))
done

python3 - "$tmp/pairs" "$rev" "$workload" "$seed" <<'EOF'
import statistics, sys

path, rev, workload, seed = sys.argv[1:]
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
wins = sum(1 for b, n in pairs if n > b)
print(f"{workload} seed {seed}, updates_per_s over {len(pairs)} pairs")
print(f"  {rev}: median {bmed:.1f}, quartiles {bq1:.1f} .. {bq3:.1f}")
print(f"  working tree: median {nmed:.1f}, quartiles {nq1:.1f} .. {nq3:.1f}")
print(f"  median ratio {nmed / bmed:.3f}x; working tree won {wins}/{len(pairs)};"
      f" median gap {nmed - bmed:.1f} vs {rev} IQR {bq3 - bq1:.1f}")
EOF
