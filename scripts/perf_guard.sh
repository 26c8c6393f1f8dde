#!/bin/sh
# Perf-regression guard for the quick benchmark.
#
# Usage: perf_guard.sh BASELINE_JSON CURRENT_JSON
#
# Compares the "sum_run_wall_clock_s" field of two BENCH_results.json
# files (schema 10, see EXPERIMENTS.md) and fails when the current run is
# more than 2x slower than the committed baseline. Also checks the
# observability ablation's spans-on/spans-off ratio against the same 2x
# guard when the current file carries one (schema >= 5), and gates the
# sustained-throughput section (schema >= 6): the compiled delta
# programs must not be slower than the interpreted path
# (compiled_speedup_x >= 1.0), and the compiled updates/sec must not
# fall below half the committed baseline's. Schema >= 7 adds the
# multi-view catalog gate: the "catalog" object must be present and its
# shared-delta (MQO) maintenance must actually save queries somewhere
# (best cell's shared_saved > 0). Schema >= 8 adds the scaling gates:
# the "scaling" object must be present, the 100-source cell must run
# within 5x the 10-source cell on the same total update count (the
# O(active) event-loop gate — the historical O(N)-per-step readiness
# rebuild pays ~10x there), and per-edge coalescing must ship strictly
# fewer wire frames than the uncoalesced baseline. Schema >= 9 adds the
# self-maintainability gate: the "selfmaint" object must be present and
# its eligible cell must report messages_eca_sm = 0, bytes_eca_sm = 0
# and fallback = 0 — ECA-SM answering the whole self-maintainable
# stream warehouse-locally. Schema >= 10 adds the evolution gate: the
# "evolution" object must be present, its DDL tombstone budget pinned
# at 0, and its windowed cell must age partitions out and prune
# compensation terms. The summed per-run
# wall clock is compared — not the process total — because it measures
# the work done, whereas total_wall_clock_s shrinks with parallel
# fan-out. It is not invariant under the PAR worker count either: runs
# sharing a small host's cores each take longer. So both files must
# record the same "workers" count, and a mismatch fails before any gate.
# Machine noise on loaded CI boxes is real, so the threshold is
# deliberately loose: it catches algorithmic regressions (accidental
# quadratic loops, lost caching), not jitter.
set -eu

baseline_file=$1
current_file=$2

extract() {
  # The writer emits each field on its own line: "field": 1.234,
  # [|| true] so a missing field reaches the explicit check below instead
  # of tripping set -e inside the pipeline.
  grep -o "\"$2\": *[0-9.]*" "$1" 2>/dev/null \
    | grep -o '[0-9.]*$' || true
}

schema_baseline=$(extract "$baseline_file" schema_version)
schema_current=$(extract "$current_file" schema_version)

if [ -z "$schema_baseline" ] || [ -z "$schema_current" ]; then
  echo "perf_guard: could not read schema_version from both files" >&2
  exit 2
fi

if [ "$schema_baseline" != "$schema_current" ]; then
  echo "perf_guard: schema mismatch — baseline is schema $schema_baseline," \
    "current is schema $schema_current." >&2
  if [ "$schema_current" -ge 7 ] && [ "$schema_baseline" -lt 7 ]; then
    echo "perf_guard: the committed baseline predates the schema-7" \
      "multi-view catalog section." >&2
  fi
  if [ "$schema_current" -ge 9 ] && [ "$schema_baseline" -lt 9 ]; then
    echo "perf_guard: the committed baseline predates the schema-9" \
      "self-maintainability (ECA-SM) section." >&2
  fi
  if [ "$schema_current" -ge 10 ] && [ "$schema_baseline" -lt 10 ]; then
    echo "perf_guard: the committed baseline predates the schema-10" \
      "evolution section (online schema changes and windowed views)." >&2
  fi
  echo "perf_guard: regenerate the committed baseline with the current" \
    "bench (dune exec bench/main.exe -- quick) before comparing." >&2
  exit 2
fi

# Like for like: the summed per-run wall clock still moves with the
# worker count on a small shared host (runs contend for the cores), so
# both files must come from the same PAR.
workers_baseline=$(extract "$baseline_file" workers)
workers_current=$(extract "$current_file" workers)
if [ "$workers_baseline" != "$workers_current" ]; then
  echo "perf_guard: worker counts differ — baseline ran with" \
    "workers=${workers_baseline:-?}, current with workers=${workers_current:-?}." >&2
  echo "perf_guard: rerun the current bench with" \
    "PAR=${workers_baseline:-?} before comparing." >&2
  exit 2
fi

baseline=$(extract "$baseline_file" sum_run_wall_clock_s)
current=$(extract "$current_file" sum_run_wall_clock_s)

if [ -z "$baseline" ] || [ -z "$current" ]; then
  echo "perf_guard: could not read sum_run_wall_clock_s (schema >= 3" \
    "required; found schema $schema_current)" >&2
  exit 2
fi

# ratio check in awk (POSIX sh has no float arithmetic)
awk -v b="$baseline" -v c="$current" 'BEGIN {
  ratio = c / b;
  printf "perf_guard: baseline %.3fs, current %.3fs (%.2fx, summed per-run wall clock)\n", b, c, ratio;
  if (ratio > 2.0) {
    printf "perf_guard: FAIL — quick bench regressed more than 2x\n";
    exit 1;
  }
  printf "perf_guard: OK\n";
}'

overhead=$(extract "$current_file" overhead_x)
if [ -n "$overhead" ]; then
  awk -v o="$overhead" 'BEGIN {
    printf "perf_guard: observe overhead %.2fx (spans on / spans off)\n", o;
    if (o > 2.0) {
      printf "perf_guard: FAIL — observability layer costs more than 2x\n";
      exit 1;
    }
    printf "perf_guard: observe OK\n";
  }'
fi

# Sustained-throughput gate (schema >= 6). A schema-6 current file with
# no throughput section means the headline number silently stopped being
# measured — that is a failure of the bench, not something to skip over.
speedup=$(extract "$current_file" compiled_speedup_x)
if [ "$schema_current" -ge 6 ] && [ -z "$speedup" ]; then
  echo "perf_guard: schema $schema_current output carries no" \
    "\"compiled_speedup_x\" — the throughput section is missing." >&2
  echo "perf_guard: regenerate with the current bench" \
    "(dune exec bench/main.exe -- quick) and re-run." >&2
  exit 2
fi
if [ -n "$speedup" ]; then
  awk -v s="$speedup" 'BEGIN {
    printf "perf_guard: compiled delta programs %.2fx vs interpreted\n", s;
    if (s < 1.0) {
      printf "perf_guard: FAIL — compiled apply path is slower than the interpreted one\n";
      exit 1;
    }
    printf "perf_guard: compiled speedup OK\n";
  }'
  tp_baseline=$(extract "$baseline_file" updates_per_s)
  tp_current=$(extract "$current_file" updates_per_s)
  if [ -n "$tp_baseline" ] && [ -n "$tp_current" ]; then
    awk -v b="$tp_baseline" -v c="$tp_current" 'BEGIN {
      ratio = c / b;
      printf "perf_guard: throughput baseline %.0f updates/s, current %.0f (%.2fx)\n", b, c, ratio;
      if (ratio < 0.5) {
        printf "perf_guard: FAIL — compiled-path throughput fell below half the baseline\n";
        exit 1;
      }
      printf "perf_guard: throughput OK\n";
    }'
  fi
fi

# Multi-view catalog gate (schema >= 7). The "catalog" object must be
# present — a schema-7 file without one means the section silently
# stopped running — and the shared-delta (MQO) maintenance must actually
# save queries: the best cell's shared_saved is gated > 0.
if [ "$schema_current" -ge 7 ]; then
  if ! grep -q '"catalog": {' "$current_file"; then
    echo "perf_guard: schema $schema_current output carries no" \
      "\"catalog\" object — the multi-view section is missing." >&2
    echo "perf_guard: regenerate with the current bench" \
      "(dune exec bench/main.exe -- quick) and re-run." >&2
    exit 2
  fi
  saved_max=$(extract "$current_file" shared_saved | sort -n | tail -1)
  if [ -z "$saved_max" ]; then
    echo "perf_guard: catalog object carries no shared_saved cells" >&2
    exit 2
  fi
  awk -v s="$saved_max" 'BEGIN {
    printf "perf_guard: shared-delta maintenance saved %d queries in its best cell\n", s;
    if (s <= 0) {
      printf "perf_guard: FAIL — MQO sharing saved no queries\n";
      exit 1;
    }
    printf "perf_guard: catalog OK\n";
  }'
fi

# Scaling gates (schema >= 8). The "scaling" object must be present —
# a schema-8 file without one means the N-source matrix silently stopped
# running. Its two perf claims are then gated directly:
#   - O(active): the n=100 gate cell processes the same 200-update
#     stream as the n=10 cell, so with per-step cost off N the wall
#     ratio sits near 1x; the old O(N)-per-step readiness rebuild pays
#     ~10x. Gated at 5x (both cells are best-of-3, but CI noise is real).
#   - Coalescing: strictly fewer wire frames than the uncoalesced run
#     of the identical hot stream.
if [ "$schema_current" -ge 8 ]; then
  if ! grep -q '"scaling": {' "$current_file"; then
    echo "perf_guard: schema $schema_current output carries no" \
      "\"scaling\" object — the N-source matrix is missing." >&2
    echo "perf_guard: regenerate with the current bench" \
      "(dune exec bench/main.exe -- quick) and re-run." >&2
    exit 2
  fi
  n10=$(extract "$current_file" n10_wall_clock_s)
  n100=$(extract "$current_file" n100_wall_clock_s)
  if [ -z "$n10" ] || [ -z "$n100" ]; then
    echo "perf_guard: scaling object carries no n10/n100 wall-clock gate cells" >&2
    exit 2
  fi
  awk -v a="$n10" -v b="$n100" 'BEGIN {
    ratio = b / a;
    printf "perf_guard: 200 updates over 100 sources cost %.2fx the 10-source run\n", ratio;
    if (ratio > 5.0) {
      printf "perf_guard: FAIL — per-step cost grows with N (O(active) loop regressed)\n";
      exit 1;
    }
    printf "perf_guard: O(active) OK\n";
  }'
  c_off=$(extract "$current_file" coalesce_off_wire_messages)
  c_on=$(extract "$current_file" coalesce_on_wire_messages)
  if [ -z "$c_off" ] || [ -z "$c_on" ]; then
    echo "perf_guard: scaling object carries no coalescing wire counts" >&2
    exit 2
  fi
  awk -v off="$c_off" -v on="$c_on" 'BEGIN {
    printf "perf_guard: coalescing shipped %d wire frames vs %d uncoalesced\n", on, off;
    if (on >= off) {
      printf "perf_guard: FAIL — per-edge coalescing no longer reduces shipped frames\n";
      exit 1;
    }
    printf "perf_guard: coalescing OK\n";
  }'
fi

# Self-maintainability gate (schema >= 9). The "selfmaint" object must
# be present — a schema-9 file without one means the ECA-SM matrix
# silently stopped running. Its eligible cell is then gated directly:
# ECA-SM maintains the self-maintainable family with zero compensating
# messages, zero transferred bytes and zero fallbacks. A mismatch here
# usually means one of the two files predates schema 9 — the
# schema_version check above reports that case explicitly.
if [ "$schema_current" -ge 9 ]; then
  if ! grep -q '"selfmaint": {' "$current_file"; then
    echo "perf_guard: schema $schema_current output carries no" \
      "\"selfmaint\" object — the self-maintainability section is missing." >&2
    echo "perf_guard: regenerate with the current bench" \
      "(dune exec bench/main.exe -- quick) and re-run." >&2
    exit 2
  fi
  sm_msgs=$(extract "$current_file" messages_eca_sm)
  sm_bytes=$(extract "$current_file" bytes_eca_sm)
  sm_fallback=$(extract "$current_file" fallback)
  if [ -z "$sm_msgs" ] || [ -z "$sm_bytes" ] || [ -z "$sm_fallback" ]; then
    echo "perf_guard: selfmaint object carries no eligible-cell gate fields" \
      "(messages_eca_sm / bytes_eca_sm / fallback)" >&2
    exit 2
  fi
  awk -v m="$sm_msgs" -v b="$sm_bytes" -v f="$sm_fallback" 'BEGIN {
    printf "perf_guard: ECA-SM eligible cell: M=%d B=%d fallbacks=%d\n", m, b, f;
    if (m != 0 || b != 0 || f != 0) {
      printf "perf_guard: FAIL — ECA-SM sent traffic on the self-maintainable workload\n";
      exit 1;
    }
    printf "perf_guard: selfmaint OK\n";
  }'
fi

# Evolution gate (schema >= 10). The "evolution" object must be present
# — a schema-10 file without one means the DDL x fault x channel matrix
# and the windowed cell silently stopped running. Its protocol claims
# are then gated directly: the tombstone budget stays at the pinned 0
# (every stale answer crossing a schema change is absorbed by
# quiescence on FIFO channels), and the windowed cell actually aged
# partitions out and pruned out-of-window compensation terms.
if [ "$schema_current" -ge 10 ]; then
  if ! grep -q '"evolution": {' "$current_file"; then
    echo "perf_guard: schema $schema_current output carries no" \
      "\"evolution\" object — the schema-change/windowed section is missing." >&2
    echo "perf_guard: regenerate with the current bench" \
      "(dune exec bench/main.exe -- quick) and re-run." >&2
    exit 2
  fi
  # stale_quiesce_max appears in several sections (catalog rungs,
  # scaling, selfmaint, evolution) — all must be 0, so gate the max.
  quiesce_max=$(extract "$current_file" stale_quiesce_max | sort -n | tail -1)
  aged=$(extract "$current_file" win_aged_partitions | sort -n | tail -1)
  pruned=$(extract "$current_file" win_pruned_terms | sort -n | tail -1)
  if [ -z "$quiesce_max" ] || [ -z "$aged" ] || [ -z "$pruned" ]; then
    echo "perf_guard: evolution object carries no gate fields" \
      "(stale_quiesce_max / win_aged_partitions / win_pruned_terms)" >&2
    exit 2
  fi
  awk -v q="$quiesce_max" -v a="$aged" -v p="$pruned" 'BEGIN {
    printf "perf_guard: evolution: stale_quiesce_max=%d aged=%d pruned=%d\n", q, a, p;
    if (q != 0) {
      printf "perf_guard: FAIL — the DDL tombstone budget is no longer pinned to 0\n";
      exit 1;
    }
    if (a <= 0 || p <= 0) {
      printf "perf_guard: FAIL — the windowed cell stopped aging or pruning\n";
      exit 1;
    }
    printf "perf_guard: evolution OK\n";
  }'
fi
