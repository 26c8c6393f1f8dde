#!/bin/sh
# Byte-identity check of the `vmw run` surface against a revision.
#
# Usage: check_surface.sh REV
#
# Builds bin/vmw.exe twice, each with its own dune build directory under
# one `mktemp -d`: once from REV (exported there with `git archive`) and
# once from the working tree. Then runs both over the grid
#
#   every *.sql under test/golden and examples/scripts
#   x the rungs basic eca eca-key eca-local eca-sm lca rv sc
#   x the schedules best worst round-robin random:7 random:31
#   x --batch 1 and 2
#
# three ways per cell: text, --json, and --json with --trace-out (the
# observability JSONL). Standard output and error, the JSONL and the exit
# status of every run must match byte for byte. Both sides read the
# working tree's scripts, so only the program differs. Prints the
# differing files (at most 20) and exits 1 on any difference; exits 0
# with a cell count otherwise. Everything it builds is removed on exit.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
rev=$1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# The shared dune cache lives outside the checkouts: keep it off.
build() { # SRC BUILD_DIR
  DUNE_CACHE=disabled dune build --root "$1" --build-dir "$2" \
    ./bin/vmw.exe >&2
}
build "$tmp/base" "$tmp/build-base"
build "$root" "$tmp/build-new"

# All runs of one cell under OUT_DIR: NAME.txt, NAME.json, NAME.obs.json,
# NAME.jsonl and NAME.status.
cell() { # EXE OUT_DIR NAME SCRIPT ALGO SCHEDULE BATCH
  exe=$1 out=$2/$3
  shift 3
  set -- "$1" -a "$2" -s "$3" --batch "$4"
  status=0
  "$exe" run "$@" > "$out.txt" 2>&1 || status=$?
  echo "text $status" > "$out.status"
  status=0
  "$exe" run "$@" --json > "$out.json" 2>&1 || status=$?
  echo "json $status" >> "$out.status"
  status=0
  "$exe" run "$@" --json --trace-out "$out.jsonl" > "$out.obs.json" 2>&1 \
    || status=$?
  echo "observe $status" >> "$out.status"
}

mkdir "$tmp/out-base" "$tmp/out-new"
cells=0
cd "$root"
for script in test/golden/*.sql examples/scripts/*.sql; do
  for algo in basic eca eca-key eca-local eca-sm lca rv sc; do
    for schedule in best worst round-robin random:7 random:31; do
      for batch in 1 2; do
        name=$(echo "$script-$algo-$schedule-$batch" | tr '/:' '__')
        cell "$tmp/build-base/default/bin/vmw.exe" "$tmp/out-base" "$name" \
          "$script" "$algo" "$schedule" "$batch"
        cell "$tmp/build-new/default/bin/vmw.exe" "$tmp/out-new" "$name" \
          "$script" "$algo" "$schedule" "$batch"
        cells=$((cells + 1))
      done
    done
  done
done

if diff -rq "$tmp/out-base" "$tmp/out-new" > "$tmp/diff"; then
  echo "check_surface: $cells cells identical to $rev"
else
  head -n 20 "$tmp/diff"
  echo "check_surface: $(wc -l < "$tmp/diff") files differ from $rev" >&2
  exit 1
fi
