.PHONY: all build test test-stress bench bench-smoke bench-full examples \
        perfbench-smoke mcheck-smoke mcheck-deep litmus-smoke litmus-deep \
        psan-smoke lint lint-strict fmt ci clean

# Every generated CSV (bench smoke/full panels, psan counters, mlint
# counters) lands under this one directory — override with
# `make ARTIFACTS=... <target>`.  CI uploads the directory wholesale;
# nothing generated may sit untracked in the repo root.
ARTIFACTS ?= _artifacts

all: build

build:
	dune build @all

test:
	dune runtest

fmt:
	dune build @fmt

# The full CI gate, runnable locally in one shot: build, unit tests, the
# budget-enforcing bench smoke, crash-point model checking, the
# persistency sanitizer, and formatting.  Green here means the required
# GitHub checks will be green (the workflow jobs run these same targets).
ci: build test lint bench-smoke perfbench-smoke mcheck-smoke litmus-smoke \
    psan-smoke fmt
	@echo "ci: all gates green"

# Nightly soak: the crash-torture tier over real domains and the race of
# first-touch registration against a crash, 30 times, so
# low-probability interleavings get a chance to fire.  Failure logs land
# in _stress/ (one per failing round) for CI to upload; the round number
# doubles as the only extra seed input, so a failing round is rerunnable
# with the same command.
test-stress: build
	@mkdir -p _stress; fail=0; \
	for i in $$(seq 1 30); do \
	  for suite in durable recovery-par diff-fuzz registration; do \
	    if ! dune exec test/main.exe -- test $$suite \
	        > _stress/round$$i-$$suite.log 2>&1; then \
	      echo "STRESS FAIL round $$i suite $$suite" \
	        "(log: _stress/round$$i-$$suite.log)"; \
	      cp _stress/round$$i-$$suite.log \
	        _stress/FAIL-round$$i-$$suite.log; \
	      fail=1; \
	    else \
	      rm -f _stress/round$$i-$$suite.log; \
	    fi; \
	  done; \
	done; \
	if [ $$fail -eq 0 ]; then echo "stress: 30 rounds clean"; fi; \
	exit $$fail

bench:
	dune exec bench/main.exe

# CI-speed pass that also enforces every row of bench/budgets.csv: exits
# non-zero if any panel row is past its budget (the figure rows' flush/fence
# ceilings, the buffered/line/recovery/alloc/scaling floors and ceilings
# alike) or a budget row is malformed or matches nothing.  The six side
# panel CSVs (bench_smoke_{elision,buffered,line,recovery,alloc,scaling}.csv)
# land next to the figure CSV for CI to archive.
bench-smoke:
	@mkdir -p $(ARTIFACTS)
	dune exec bench/main.exe -- --smoke --no-ablation \
	  --csv $(ARTIFACTS)/bench_smoke.csv --budget bench/budgets.csv

# The KV benchmark's correctness check, CI-sized: one untraced repetition
# each of kv-read, kv-update, kv-buffered and recover at seed 1 — the last
# two are the only end-to-end runs of the buffered epoch path and of a
# crash reset over tracked slots.  bench.exe exits 1 when an op result
# disagrees with the sequential oracle or the contents after a crash and
# recovery differ from the acknowledged set.  Its timings are
# informational; perfbench/run.py is the benchmark proper.  One figure is
# a gate: mem_bytes_per_key of kv-read, kv-update and kv-buffered, read
# from each run's last (JSON) line, must not exceed that workload's
# ceiling.  It is deterministic to about 0.01 B (368.03 B per key at seed
# 1, 46 words: two buckets of a 12-word head variable and an array cell,
# the node, its 12-word `next` variable and the 4-word entry its insert
# installed in the predecessor field; every field still holding Nil
# shares the table's one birth entry), so a layout regression fails here
# instead of passing silently: with 15-word variables it measured
# 440.03 B.  kv-buffered measures 416.37 B (488.37 B with 15-word
# variables): its Nil-born fields also share the birth's one-element
# media history.
# Each ceiling is its measured value plus 6 B of headroom.  Each run's
# output lands in $(ARTIFACTS).
PERFBENCH = ./_build/default/perfbench/bench.exe
MEM_CEILING_B = 374
MEM_CEILING_BUFFERED_B = 422

perfbench-smoke:
	dune build ./perfbench/bench.exe
	@mkdir -p $(ARTIFACTS)
	@for wc in kv-read:$(MEM_CEILING_B) kv-update:$(MEM_CEILING_B) \
	    kv-buffered:$(MEM_CEILING_BUFFERED_B); do \
	  w=$${wc%%:*}; cap=$${wc##*:}; \
	  out=$(ARTIFACTS)/perfbench_smoke_$$w.txt; \
	  echo "$(PERFBENCH) --workload $$w --seed 1 --trace 0"; \
	  $(PERFBENCH) --workload $$w --seed 1 --trace 0 > $$out; \
	  status=$$?; cat $$out; \
	  [ $$status -eq 0 ] || exit $$status; \
	  tail -n 1 $$out | python3 -c 'import json, sys; \
	    w, cap = sys.argv[1], float(sys.argv[2]); \
	    m = json.load(sys.stdin)["metrics"]["mem_bytes_per_key"]["value"]; \
	    print(("mem ok" if m <= cap else "MEM CEILING EXCEEDED") \
	          + f": {w} mem_bytes_per_key {m:.2f} B, ceiling {cap:g} B"); \
	    sys.exit(0 if m <= cap else 1)' $$w $$cap || exit 1; \
	done
	$(PERFBENCH) --workload recover --seed 1 --trace 0

bench-full:
	@mkdir -p $(ARTIFACTS)
	dune exec bench/main.exe -- --full --csv $(ARTIFACTS)/bench_results.csv

# Crash-point model checking, CI-sized: every persist-relevant crash point
# of 5 recorded schedules per (structure, mirror variant) pair, plus a
# negative control that must produce a counterexample (OriginalNVMM never
# flushes, so an adversarial crash loses completed updates).
mcheck-smoke:
	@for ds in list hash bst skiplist; do \
	  for prim in mirror mirror-nvmm; do \
	    dune exec bin/mcheck.exe -- --structure $$ds --prim $$prim \
	      --seeds 5 --threads 4 --ops 10 --budget 200 || exit 1; \
	  done; \
	done
	dune exec bin/mcheck.exe -- --structure list --prim orig-nvmm \
	  --expect-violation
	dune exec bin/mcheck.exe -- --structure skiplist --prim mirror-nvmm \
	  --elide --seeds 3 --threads 4 --ops 10
	@# Buffered durable linearizability: every crash point (mid-advance
	@# Epoch_bump windows included) of list and queue under the buffered
	@# discipline must validate against the durable cut, with a psan
	@# buffered-rule pass on each reference run ...
	dune exec bin/mcheck.exe -- --structure list --discipline buffered \
	  --epoch-len 8 --psan --seeds 5 --threads 4 --ops 10 --budget 200
	dune exec bin/mcheck.exe -- --structure queue --discipline buffered \
	  --epoch-len 8 --seeds 5 --threads 4 --ops 10 --budget 200
	@# ... and the negative control: the strict validator over the same
	@# buffered execution must flag the dropped deferred tail.  The replay
	@# token pins one counterexample (seed 1, crash point 2, pick-0
	@# schedule: a completed update lost with the open epoch), and the
	@# buffered validator must stay silent on that exact crash point.
	dune exec bin/mcheck.exe -- --structure list --discipline buffered \
	  --epoch-len 8 --strict-validate --threads 4 --ops 10 \
	  --replay "1:2:" --expect-violation
	dune exec bin/mcheck.exe -- --structure list --discipline buffered \
	  --epoch-len 8 --threads 4 --ops 10 --replay "1:2:"
	@# Crash-in-recovery: kill recovery itself at every (subsampled)
	@# recovery point of every (subsampled) crash point, restart it, and
	@# require durable linearizability of the final state; the negative
	@# control trusts a half-finished recovery and must be caught.
	@for ds in list hash bst skiplist; do \
	  for prim in mirror mirror-nvmm; do \
	    dune exec bin/mcheck.exe -- --structure $$ds --prim $$prim \
	      --crash-in-recovery --threads 3 --ops 3 \
	      --budget 6 --rec-budget 6 || exit 1; \
	  done; \
	done
	dune exec bin/mcheck.exe -- --structure list --prim mirror \
	  --crash-in-recovery --threads 3 --ops 3 --budget 4 --rec-budget 4 \
	  --trust-partial-recovery --expect-violation
	@# The replay paths: one pinned crash-in-recovery token must replay
	@# clean, the same run trusting a half-finished recovery must be
	@# caught, and the DPOR picker must find the orig-nvmm violation.
	dune exec bin/mcheck.exe -- --structure list --prim mirror \
	  --threads 3 --ops 3 --replay-recovery "1:3:2:2,1,1,2,2,2,0,2"
	dune exec bin/mcheck.exe -- --structure list --prim mirror \
	  --threads 3 --ops 3 --replay-recovery "1:0:0:2,1,1,2" \
	  --trust-partial-recovery --expect-violation
	dune exec bin/mcheck.exe -- --structure list --prim orig-nvmm \
	  --picker dpor --threads 2 --ops 2 --expect-violation
	@# Line-granular crash enumeration: with 8 slots per simulated cache
	@# line the placement API packs neighbouring repp fields together,
	@# flushes coalesce, and a lost line loses all its slots at once —
	@# every crash point (coalesced-flush windows included) must still
	@# validate on the multi-field structures.
	@for ds in list bst skiplist; do \
	  dune exec bin/mcheck.exe -- --structure $$ds --prim mirror \
	    --slots-per-line 8 --seeds 3 --threads 4 --ops 10 --budget 200 \
	    || exit 1; \
	done

# The persistency litmus suite, run to full sleep-set-DPOR exhaustion:
# every test's live and durable outcome sets must match its pinned
# expectation exactly, and the orig-nvmm negative controls must reach
# their forbidden durable state.  The per-test explored/pruned table
# lands in litmus.csv for CI to render and archive.
litmus-smoke:
	@mkdir -p $(ARTIFACTS)
	dune exec bin/litmus.exe -- --csv $(ARTIFACTS)/litmus.csv

# Nightly tier: the 3-thread sweep on top of the default suite.
litmus-deep:
	@mkdir -p $(ARTIFACTS)
	dune exec bin/litmus.exe -- --deep --csv $(ARTIFACTS)/litmus_deep.csv

# Nightly-sized: more schedules, bigger workloads, elision on, and deep
# mode (a crash point before every plain NVMM write as well).
mcheck-deep:
	@for ds in list hash bst skiplist; do \
	  for prim in mirror mirror-nvmm izraelevitz nvtraverse; do \
	    dune exec bin/mcheck.exe -- --structure $$ds --prim $$prim \
	      --seeds 25 --threads 4 --ops 20 --deep --budget 2000 || exit 1; \
	    dune exec bin/mcheck.exe -- --structure $$ds --prim $$prim \
	      --seeds 10 --threads 4 --ops 20 --elide --deep --budget 2000 \
	      || exit 1; \
	  done; \
	done
	dune exec bin/mcheck.exe -- --structure list --prim orig-nvmm \
	  --seeds 5 --expect-violation

# Persistency sanitizer, CI-sized: the psan test tier (violation fixtures,
# clean sweep, W1/elision equivalence), then the smoke gate — every Mirror
# structure under both placements must be sanitizer-clean, the non-Mirror
# baselines must trip their expected violation classes, the sanitized run
# must stay within 3x of the unsanitized one, and the W1 redundant-persist
# counters land in psan_lint.csv for CI to archive next to the bench CSV.
psan-smoke:
	@mkdir -p $(ARTIFACTS)
	dune exec test/main.exe -- test psan
	dune exec bin/psan_smoke.exe -- --csv $(ARTIFACTS)/psan_lint.csv

# Static persistency-discipline gate (<5 s): every .ml under lib/, bin/
# and examples/ through the mlint rules (L1-L7 errors, W2 warning), with
# the committed baseline as the only accepted debt.  Per-rule counters
# land in mlint.csv for CI to archive next to psan_lint.csv.
lint: build
	@mkdir -p $(ARTIFACTS)
	dune exec bin/mlint.exe -- --root . --baseline mlint_baseline.csv \
	  --csv $(ARTIFACTS)/mlint.csv

# Nightly tier: warnings-as-errors (W2 included) and stale baseline rows
# fail too.
lint-strict: build
	@mkdir -p $(ARTIFACTS)
	dune exec bin/mlint.exe -- --root . --baseline mlint_baseline.csv \
	  --csv $(ARTIFACTS)/mlint.csv --strict

examples:
	dune exec examples/quickstart.exe
	dune exec examples/kvstore.exe
	dune exec examples/counters.exe
	dune exec examples/raw_heap.exe
	dune exec examples/crash_torture.exe
	dune exec examples/bank.exe

clean:
	dune clean
