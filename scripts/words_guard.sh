#!/bin/sh
# Minor-words guard for the perfbench workloads.
#
# Usage: words_guard.sh [COMMITTED]
#
# Builds bench/main.exe, runs `bench/main.exe words` (one warm-up and
# one counted Engine.run per workload at seeds 11 and 31337, from the
# repository root) and fails when any cell's minor words per update is
# more than 2% above its value in COMMITTED (default bench/words.json),
# or when a committed cell is missing from the run. The count repeats
# exactly for a given build, so the gate is free of host noise. Record
# a new bench/words.json only on purpose, with
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
def cells(path):
    with open(path) as f:
        doc = json.load(f)
    return {(c["workload"], c["seed"]): c["minor_words_per_update"] for c in doc["cells"]}
committed, measured = cells(sys.argv[1]), cells(sys.argv[2])
failed = False
for key, base in sorted(committed.items()):
    now = measured.get(key)
    if now is None:
        print("words_guard: %s seed %d: missing from the run" % key)
        failed = True
        continue
    over = now > base * limit
    print("words_guard: %-12s seed %-5d %9.2f minor words/update (committed %9.2f, %+.1f%%)%s"
          % (key[0], key[1], now, base, 100.0 * (now / base - 1.0), "  FAIL" if over else ""))
    failed = failed or over
if failed:
    print("words_guard: a cell is over its committed count by more than 2%")
    sys.exit(1)
EOF
