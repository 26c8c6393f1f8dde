#!/bin/sh
# Wire-frame guard for the reliable link on the fanout-chaos workload.
#
# Usage: frames_guard.sh SEED...
#
# Runs perfbench's fanout-chaos workload untraced for 2 s at each SEED
# (python3 perfbench/run.py, from the repository root) and fails when a
# run fails or its JSON reports wire_frames_per_update above 0.40. The
# frame count is deterministic for a seed, so the guard is free of host
# noise. Selective repeat brought it from about 8 to 4.5-4.75 frames per
# update, acks riding on reverse data frames to about 3.6-3.7 (3.556 at
# seed 11, 3.702 at 31337), a retransmission timer covering the
# channels' round trip, with resent frames carrying the current ack, to
# 3.100 and 3.176, and payloads queued behind an unacknowledged frame
# leaving together, with consecutive overdue holes resent as one frame,
# to 0.349 and 0.360. A link that sends a frame per payload again (3.10
# and more) crosses the line.
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
limit = 0.40
print("frames_guard: fanout-chaos seed %s: %.3f wire frames per update (limit %.2f)"
      % (seed, frames, limit))
if frames > limit:
    sys.exit(1)
EOF
done
