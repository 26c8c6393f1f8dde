#!/bin/sh
# Wire-frame guard for the reliable link on the fanout-chaos workload.
#
# Usage: frames_guard.sh SEED...
#
# Runs perfbench's fanout-chaos workload untraced for 2 s at each SEED
# (python3 perfbench/run.py, from the repository root) and fails when a
# run fails or its JSON reports wire_frames_per_update above 4.0. The
# frame count is deterministic for a seed, so the guard is free of host
# noise. Selective repeat brought it from about 8 to 4.5-4.75 frames per
# update, and acks riding on reverse data frames to about 3.6-3.7; a
# protocol change that resends more than it must, or sends acks alone
# again, crosses the line.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 SEED..." >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp)
trap 'rm -f "$out"' EXIT

for seed in "$@"; do
  if ! python3 "$root/perfbench/run.py" --workload fanout-chaos \
    --seed "$seed" --seconds 2 --trace 0 > "$out"; then
    echo "frames_guard: fanout-chaos failed at seed $seed" >&2
    exit 1
  fi
  python3 - "$out" "$seed" <<'EOF'
import json, sys
path, seed = sys.argv[1], sys.argv[2]
with open(path) as f:
    last = [line for line in f if line.strip()][-1]
frames = json.loads(last)["metrics"]["wire_frames_per_update"]["value"]
limit = 4.0
print("frames_guard: fanout-chaos seed %s: %.3f wire frames per update (limit %.1f)"
      % (seed, frames, limit))
if frames > limit:
    sys.exit(1)
EOF
done
