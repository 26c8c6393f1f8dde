# Convenience targets; `dune build` / `dune runtest` remain the source of
# truth (ROADMAP.md tier 1).

.PHONY: all build test bench bench-par bench-throughput props smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full benchmark suite including the Bechamel wall-clock section.
# Sequential unless PAR is set in the environment.
bench:
	dune build bench/main.exe
	./_build/default/bench/main.exe

# Full benchmark fanned out over the domain pool: every core unless PAR
# overrides it (PAR=1 is the sequential path; the emitted runs array is
# identical either way, modulo per-run wall clocks).
bench-par:
	dune build bench/main.exe
	./_build/default/bench/main.exe $${PAR:+--par=$$PAR}

# Just the sustained-throughput section (SC's staged delta programs vs
# the interpreted Centralized reference, schema v6), written to BENCH_throughput.json so the
# committed BENCH_results.json is not clobbered by a partial run.
bench-throughput:
	dune build bench/main.exe
	./_build/default/bench/main.exe throughput

# Sweep the qcheck properties over SEEDS fresh seeds (default 10),
# outside tier-1. Tier-1 runs every property from one fixed seed, so its
# verdicts repeat; this target draws new ones. Each run prints its seed,
# and a failing seed reruns with QCHECK_SEED=<seed> dune exec
# test/main.exe.
SEEDS ?= 10
props:
	dune build test/main.exe
	@i=0; while [ $$i -lt $(SEEDS) ]; do \
	  seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	  QCHECK_SEED=$$seed ./_build/default/test/main.exe > /dev/null 2>&1 \
	    || { echo "props: a test failed at QCHECK_SEED=$$seed"; exit 1; }; \
	  i=$$((i + 1)); \
	done; \
	echo "props: $(SEEDS) fresh seeds passed"

# One-stop pre-commit gate: check the build settings first
# (scripts/build_guard.sh: `dune printenv` must show lib/relational
# compiled with -strict-sequence and dev's warnings-as-errors spec, which
# the root dune file applies under every profile, and no module of the
# libraries perfbench links may compile with -opaque, since
# dune-workspace selects the release profile, whose native code inlines
# across modules) and the library surface (scripts/surface_guard.sh:
# every val a lib/ interface exports is named by a program — bin/,
# bench/, perfbench/, examples/ or another lib/ module — or kept by its
# allowlist with a reason), then build everything, run the test suite (plus
# the fault-injection/reliability suites, the channel suite holding the
# faulty channel's reference model, the bag laws (fingerprint,
# equal_since, the stored negative count and add_get's before-counts),
# the golden-trace check pinning
# Engine.run byte-for-byte, and the engine, selfmaint, evolution,
# consistency-judge, staleness, planned-vs-naive evaluation,
# access-path (index), delta-program, scheduler, runner, algorithm,
# random-view, property and compound-view suites — the last four hold
# the guarded-compensation checks against the fold reference — and the
# catalog suite holding the shared-delta (skeleton sharing) checks, and
# the prepared suite holding the prepared-skeleton checks against their
# per-term references (guard templates, the one-row literal path, the
# executor's plan-carried join edges, the widening memo), and the window
# suite holding the trailing-window property against its brute-force
# reference, and the oracle-groups suite holding the shared-join oracle
# checks (grouped states against Viewdef.eval over every stream prefix,
# twins sharing one state, a regrouping schema change, a windowed twin), all
# explicitly, so a filtered or cached runtest can never silently skip
# them), run each perfbench workload for 2 s untraced and 2 s traced as
# a correctness gate only (a non-zero exit, i.e. a failed view or build,
# fails smoke; timings are not gated on a shared host — the traced run
# adds the ledger-sum assert, the source and oracle replay checks and
# the replayed judge's agreement with the engine's reports) — and
# fanout-chaos once more, untraced, at the held-out seed 31337, so the
# reliable link is gated off the seed it was tuned on — its two
# untraced runs go through scripts/frames_guard.sh, which also fails
# when either reports more than 0.40 wire frames per update (a
# deterministic count, so the gate is free of host noise) — run
# scripts/words_guard.sh, which fails when any workload's set-up words
# (those Engine.start allocates) or minor words per update (from start
# to the end of the run) — bench/main.exe words: one counted run after
# a warm-up, at seeds 11 and 31337, exact counts for a given build —
# are more than 2% above their values in the committed bench/words.json
# — fail if a
# removed entry point
# reappears in the sources (the
# old run drivers and scheduler aliases, the compiled/interpreted
# toggle and the engine's oracle modes, the array-based scheduler
# picks, the warehouse install log, the sharded-dispatch option,
# the per-site retransmit timeout and the reliable link's own timeout
# argument, now derived from its channels' delay bounds, the
# warehouse's second message
# dispatcher, its string-keyed window counters and second constructor,
# the per-rung Not_applicable exceptions, the O(n) queue filter
# that Fqueue.remove_first replaced, the separate LCA module that
# Eca.lca's in-order install policy replaced, the plan and
# delta-program digests that Query.signature replaced, the reliable
# link's caller-less printer and mean latency, the plan and staging
# cache resets, the source's IO total and event counts that
# metrics.source_io and Source.events replaced, and the sorted
# tuple-list lookups that Db.probe's counted matches replaced, and the
# staging cache and the plan cache's counters, gone now that each caller
# owns the programs it stages, and the warehouse's by-name view lookup
# Warehouse.mv, which Warehouse.mvs answers, and its extras_rev route
# half, gone now that each gid routes to one owner-first subscriber
# list, and its test-only gid_subscribers reader, whose order the
# owner-first answer delivery pins, and the library's test-only names:
# the naive reference evaluator, maintain_all and subst_all, now in
# test/ref_eval.ml, the judge's separate weak, ordered and coverage
# predicates, the JSON exporter's builders and federation summary,
# every other val the surface guard found no program naming that left
# its interface, and Network's own direction converter, and the names
# no program ran that a whole-word scan missed: Bag's minus, scale,
# union and is_set, Query.minus, Centralized.maintain, Eval.term,
# Update.equal and Viewdef.equal, and View.equal, which only
# Viewdef.equal called), fail if
# lib/core/engine.ml looks at
# observability outside its one hand-off to Core.Observer — a call of
# any Observe function (the Observe.Collector.t type of its options is
# allowed), more than one Trace.record, or the span and gauge helpers
# sample_staleness, obs_note_arrival and close_matched coming back —,
# check that
# the parallel bench is deterministic (PAR=1 and PAR=4 emit identical
# runs arrays), run the quick benchmark at PAR=1 in a temp dir — like
# for like with the committed baseline, which records "workers": 1 —
# and fail if its summed per-run wall clock regressed more than 2x
# against the committed BENCH_results.json baseline (perf_guard.sh holds
# the other gates, and fails when the two files' worker counts differ),
# and run the two other bench entry points there too: `csv DIR` must
# write the four figure CSVs, each a 9-column header plus data rows, and
# `throughput` must write BENCH_throughput.json with its speedup field.
# Everything the bench writes stays in the temp dir, so smoke leaves the
# working tree clean.
smoke:
	sh scripts/build_guard.sh
	sh scripts/surface_guard.sh
	dune build @all
	dune runtest
	dune exec test/main.exe -- test bag
	dune exec test/main.exe -- test faults
	dune exec test/main.exe -- test reliable
	dune exec test/main.exe -- test messaging
	dune exec test/main.exe -- test observe
	dune exec test/main.exe -- test golden
	dune exec test/main.exe -- test engine
	dune exec test/main.exe -- test selfmaint
	dune exec test/main.exe -- test evolution
	dune exec test/main.exe -- test consistency
	dune exec test/main.exe -- test staleness
	dune exec test/main.exe -- test plan-equiv
	dune exec test/main.exe -- test access
	dune exec test/main.exe -- test delta-program
	dune exec test/main.exe -- test scheduler
	dune exec test/main.exe -- test runner
	dune exec test/main.exe -- test algorithms
	dune exec test/main.exe -- test random-views
	dune exec test/main.exe -- test properties
	dune exec test/main.exe -- test compound-views
	dune exec test/main.exe -- test catalog
	dune exec test/main.exe -- test prepared
	dune exec test/main.exe -- test window
	dune exec test/main.exe -- test oracle-groups
	for w in compensate selfmaint; do \
	  python3 perfbench/run.py --workload $$w --seed 11 --seconds 2 --trace 0 > /dev/null || exit 1; \
	  python3 perfbench/run.py --workload $$w --seed 11 --seconds 2 --trace 1 > /dev/null || exit 1; \
	done
	sh scripts/frames_guard.sh 11
	python3 perfbench/run.py --workload fanout-chaos --seed 11 --seconds 2 --trace 1 > /dev/null
	sh scripts/frames_guard.sh 31337
	sh scripts/words_guard.sh
	@if grep -rnE 'Core\.Runner|Core\.Federation|Drain_first|Updates_first|unordered_delivery|set_compiled|Delta_program\.compiled|Delta_program\.linear|Engine\.Recompute|Engine\.Incremental|pick_multi|of_multi|install_history|[~?]shard\b|retransmit_timeout|Reliable\.create [~?]timeout|create \?\(timeout|Warehouse\.handle_message|window_counters|of_creator|(Eca_key|Eca_sm|Sc|Cross_source)\.Not_applicable|Fqueue\.filter|Core\.Lca\b|(Delta_program|Plan)\.signature|Reliable\.(pp|mean_latency)\b|clear_cache|Source\.(io_total|update_count|query_count)\b|Db\.matching\b|(Plan|Delta_program)\.cache_stats|per_domain_stats|staged_view|Db\.lookup\b|Warehouse\.mv\b|extras_rev|gid_subscribers|Centralized\.maintain_all|(Consistency|C)\.(weakly_consistent|consistent|covers_all_source_states) ~|Json_export\.(str|obj|arr|trace_entry|federation_summary)\b|(Scheduler|S)\.Ready\.(update_ready|enabled_count)\b|Warehouse\.no_reaction|Fault\.reorder_only|Collector\.open_count|Span\.all_kinds|Bag\.(of_signed_list|pos_part|neg_part|diff_truncated|minus|scale|union|is_set)\b|Query\.minus\b|Centralized\.maintain\b|Update\.equal\b|Csv\.split_record|Eval\.(run_plan|literal_term|naive_term|naive_query|term)\b|Fqueue\.drop_while|Plan\.(compile|step_io)\b|Predicate\.eq_attrs|Query\.subst_all|Selfmaint\.(aux_project|verdict_to_string)[^:]|Term\.slot_rel|Viewdef\.(output_arity|equal)\b|\bView\.equal\b|Generator\.(keyed_r1|keyed_r2|selfmaint_schemas|adversarial_schemas)\b|Scenarios\.(example6_view|keyed_view|selfmaintainable_view|evolution_ddls)\b|\brdir\b' \
	  lib bin bench examples test; then \
	  echo "smoke: a removed entry point or alias reappeared (use Engine.run, Scheduler.pick_ready, Trace.warehouse_states, Warehouse.create/misrouted, Algorithm.Not_applicable, Fqueue.remove_first, Eca.lca, Query.signature, Reliable.stats, metrics.source_io, Source.events, Db.probe, Warehouse.mvs; programs are owned by their stager; sharded dispatch, Engine.site ?retransmit_timeout, Reliable.create ~timeout (the timer is the channels' round trip), the staging/plan cache resets, the warehouse's (owner, extras_rev) routes and its gid_subscribers reader are gone; lib/ exports only what programs run: reference evaluators (and Ref_eval.maintain) live in test/ref_eval.ml, the signed minus and is_set in test/helpers.ml, the judge's verdicts in Consistency.check's report, and Network.direction is Reliable.dir)"; \
	  exit 1; \
	fi
	@if sed 's/Observe\.Collector\.t\b//g' lib/core/engine.ml | grep -n 'Observe\.' \
	  || grep -nE 'sample_staleness|obs_note_arrival|close_matched' lib/core/engine.ml \
	  || [ "$$(grep -c 'Trace\.record' lib/core/engine.ml)" -gt 1 ]; then \
	  echo "smoke: lib/core/engine.ml observes outside its hand-off to Core.Observer (step records the trace once and passes each step's effects on)"; \
	  exit 1; \
	fi
	dune build bench/main.exe
	sh scripts/check_determinism.sh ./_build/default/bench/main.exe 4
	@exe=$$(pwd)/_build/default/bench/main.exe; tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	(cd "$$tmp" && PAR=1 "$$exe" quick > /dev/null) || exit 1; \
	if [ -f BENCH_results.json ]; then \
	  sh scripts/perf_guard.sh BENCH_results.json "$$tmp/BENCH_results.json" || exit 1; \
	else \
	  echo "smoke: no committed BENCH_results.json baseline; skipping guard"; \
	fi; \
	(cd "$$tmp" && "$$exe" csv figs > /dev/null) || exit 1; \
	for f in 2 3 4 5; do \
	  csv="$$tmp/figs/fig6_$$f.csv"; \
	  if [ "$$(head -1 "$$csv" | awk -F, '{ print NF }')" != 9 ] \
	    || [ "$$(wc -l < "$$csv")" -lt 2 ]; then \
	    echo "smoke: fig6_$$f.csv lacks a 9-column header or a data row"; exit 1; \
	  fi; \
	done; \
	(cd "$$tmp" && "$$exe" throughput > /dev/null) || exit 1; \
	if ! grep -q '"compiled_speedup_x"' "$$tmp/BENCH_throughput.json"; then \
	  echo "smoke: BENCH_throughput.json carries no compiled_speedup_x"; exit 1; \
	fi

clean:
	dune clean
