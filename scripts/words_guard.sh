#!/bin/sh
# Minor-words guard for the perfbench workloads.
#
# Usage: words_guard.sh [COMMITTED]
#
# Builds bench/main.exe, runs `bench/main.exe words` (one warm-up and
# one counted run per workload at seeds 11 and 31337, from the
# repository root) and fails when any cell is more than 2% above its
# value in COMMITTED (default bench/words.json), or when a committed
# cell is missing from the run. Each workload and seed has two cells:
# the words Engine.start allocates (set-up) and the minor words per
# update from start to the end of the run. The counts repeat exactly for
# a given build, so the gate is free of host noise. Record a new
# bench/words.json only on purpose, with
# `./_build/default/bench/main.exe words > bench/words.json`, and log
# the old and new values.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
committed=${1:-$root/bench/words.json}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

(cd "$root" && dune build bench/main.exe)
"$root/_build/default/bench/main.exe" words > "$out"

python3 - "$committed" "$out" <<'EOF'
import json, sys
limit = 1.02
metrics = [("setup_minor_words", "set-up words"),
           ("minor_words_per_update", "words/update")]
def cells(path):
    with open(path) as f:
        doc = json.load(f)
    return {(c["workload"], c["seed"], m): c.get(m)
            for c in doc["cells"] for m, _ in metrics}
committed, measured = cells(sys.argv[1]), cells(sys.argv[2])
failed = False
for (workload, seed, m), base in sorted(committed.items()):
    label = dict(metrics)[m]
    now = measured.get((workload, seed, m))
    if base is None or now is None:
        print("words_guard: %s seed %d: %s missing from the %s"
              % (workload, seed, label, "committed file" if base is None else "run"))
        failed = True
        continue
    over = now > base * limit
    print("words_guard: %-12s seed %-5d %12.2f %-12s (committed %12.2f, %+.1f%%)%s"
          % (workload, seed, now, label, base, 100.0 * (now / base - 1.0), "  FAIL" if over else ""))
    failed = failed or over
if failed:
    print("words_guard: a cell is over its committed count by more than 2%")
    sys.exit(1)
EOF
