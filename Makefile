PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-pairs bench-smoke kernel-probe capture-probe overlay-probe read-probe examples-smoke report report-cold docs-check sweep-smoke sweep-scaling scaling-smoke trace-smoke swap-smoke replay-smoke frontier-smoke chaos-smoke resume-smoke clean-cache loc

test:
	$(PYTHON) -m pytest -x -q

# The registered benchmark (BENCHMARK.json, bench/README.md): every workload,
# interleaved rounds plus one traced pass each -> bench/results/latest.json.
bench:
	$(PYTHON) bench/run.py --seed 100 --rounds 10

# The ten-pair protocol of docs/performance.md as one command: the working
# tree against PARENT=<rev>, alternating which side runs first, judged per
# workload x end-to-end metric (tools/bench_pairs.py; JSON under .bench-pairs/).
PAIRS ?= 10
SEED ?= 100
bench-pairs:
	$(if $(PARENT),,$(error usage: make bench-pairs PARENT=<rev> [ONLY=a,b] [PAIRS=10] [SEED=100]))
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --pairs $(PAIRS) --seed $(SEED) \
		$(if $(ONLY),--only $(ONLY),)

# One short round of the two simulating workloads (cold simulation, swap
# engine: differential checks (a) and (e)), the replay-pricing workload and
# both sides of the persistence layer (write, read), plus the harness's own
# tests (the CI smoke job).
bench-smoke:
	$(PYTHON) bench/run.py --rounds 1 --seconds 2 --only sim_mixed,swap_ladder,replay_price,cache_write,cache_read
	$(PYTHON) -m pytest bench/tests -q

# numpy version, detected SIMD features and the kernel ranking the row
# reduction was chosen from (sort vs partition vs percentile, stable vs
# unique-key argsort, axis vs per-row mean) on *this* host.  Prints a table,
# never fails: a numpy upgrade that changes the ranking shows up in the log.
kernel-probe:
	-$(PYTHON) tools/kernel_probe.py

# What a template capture costs over the bare simulation it records: the same
# recording, placed, plus the tape layout (best of 7, resnet18 / vgg11 / mlp at
# 1 and 2 devices; the bar of the ROADMAP item "One way to run a scenario" is
# <= 1.05x), with a check that the template prices each config to the
# simulation's result.  Prints a table, never fails.
capture-probe:
	-$(PYTHON) tools/capture_probe.py

# Where a swap_ladder sample's time goes, as medians of 7 samples: the
# recording, its placement, the overlay's stages (init, walk, learning, log,
# plan, finalize), the reduction with its measure apart and any overlaid
# trace built on read; then one sample's exact counts, no timers: rows
# walked, rows acted on, access rows of ungoverned walks, full log builds
# and measure_class calls.  Prints a table, never fails.
overlay-probe:
	-$(PYTHON) tools/overlay_probe.py

# Where a cache_read pass's time goes, in microseconds per hit: keys and
# tokens, journal open, open + read, JSON decode, construction and the
# wrappers around them, medians of 15 alternating rounds over the benchmark's
# populated store.  Prints a table, never fails.
read-probe:
	-$(PYTHON) tools/read_probe.py

# Every script under examples/ must exit 0 (the CI examples-smoke step): they
# run in seconds and write only under figure_data/.
examples-smoke:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script > /dev/null; \
	done

report:
	$(PYTHON) -m repro report

docs-check:
	$(PYTHON) -m repro report --check
	$(PYTHON) tools/check_docstrings.py src/repro

# The report as a first-time user pays for it: every scenario simulated, no
# cache read, one process.  Drift against the committed EXPERIMENTS.md and
# docs/figures/ exits 1; the cold wall lands in the log either way.
report-cold:
	@$(PYTHON) -c "import subprocess, sys, time; \
	started = time.perf_counter(); \
	status = subprocess.call([sys.executable, '-m', 'repro', 'report', \
	                          '--check', '--no-cache', '--workers', '1']); \
	print(f'report-cold: {time.perf_counter() - started:.2f} s wall'); \
	sys.exit(status)"

sweep-smoke:
	$(PYTHON) -m repro sweep --models mlp --batch-sizes 16,32 \
		--allocators caching,bump --dry-run

# Swap execution (the CI swap-smoke leg): the overlay against its live
# per-behavior oracle (every trace validated), the premise that swapping
# moves no allocation, the overlay on a shared recording and the bound that
# residency never exceeds the recording's allocation, on the pinned corpus
# and a wide generated draw; a swap row measured off its walk's clock
# against the eagerly built overlaid traces (tests/test_swap_measure.py);
# the engine's own suite, its copy stream's (tests/test_stream.py), the
# sweep's recording sharing (tests/test_shared_recordings.py) and the
# columnar planner's Eq.-1 and selection invariants
# (tests/test_property_swap_alloc.py); then a tiny sweep under every
# executable policy that prints measured vs predicted.
swap-smoke:
	$(PYTHON) -m pytest tests/test_swap_differential.py tests/test_overlay_bounds.py \
		tests/test_swap_measure.py \
		tests/test_swap_execution.py tests/test_stream.py tests/test_shared_recordings.py \
		tests/test_property_swap_alloc.py -q --hypothesis-profile=swap-wide
	$(PYTHON) -m repro sweep --models mlp --batch-sizes 512 --iterations 5 \
		--swap off,planner,swap_advisor,zero_offload,lru,unified --no-cache

# Feasibility-frontier smoke (the CI frontier-smoke leg): the unified
# keep/swap/recompute policy plus the capacity governor on a tiny capacity
# ladder — one capacity forces eviction pressure, the unbounded point pins
# the policy's plain savings.
frontier-smoke:
	$(PYTHON) -m pytest tests/test_capacity_pressure.py \
		tests/test_property_unified_eviction.py -q
	$(PYTHON) -m repro sweep --models mlp --batch-sizes 512 --iterations 5 \
		--hidden-dim 2048 --num-layers 4 --swap unified \
		--device-memory-gib 0.0625,0.25 --no-cache

# Template-replay smoke (the CI replay-smoke leg): the equivalence suite, the
# replay properties drawn wide (--hypothesis-profile=replay-wide, registered
# in tests/conftest.py; the merged-order property among them), then a small
# --execution replay sweep that compiles one template and
# re-prices it across device specs; then the same sweep with a policy row in
# a fresh process, which must price every row — the policy's rank-0 trace
# re-timed from the stored template's columns — compiling none; the template
# directory must hold archives and no second kind of file.  A two-dtype,
# two-replica-count sweep in a fresh cache directory must leave exactly four
# archives: dtype is part of the template key, one archive per capture.
# Last, the grid over replica counts, interconnects and every offline policy
# runs under both executions: its --json rows, wall time aside, must be
# identical.
REPLAY_SWEEP = $(PYTHON) -m repro sweep --models mlp --batch-sizes 32 \
	--execution replay --devices titan_x_pascal,v100_sxm2_16gb --no-cache \
	--cache-dir .ci-replay-cache
REPLAY_GRID_JSON = $(REPLAY_SWEEP) --n-devices 1,2 --interconnects pcie_gen3,nvlink2 \
	--swap-policies none,planner,swap_advisor,zero_offload,recompute,pruning,quantization --json
replay-smoke:
	$(PYTHON) -m pytest tests/test_replay_equivalence.py -q
	$(PYTHON) -m pytest tests/test_property_replay.py -q --hypothesis-profile=replay-wide
	rm -rf .ci-replay-cache
	$(REPLAY_SWEEP)
	$(REPLAY_SWEEP) --swap-policies none,swap_advisor \
		| grep -F "4 replayed from 0 template(s)"
	test -z "$$(ls .ci-replay-cache/templates | grep -v '\.npz$$')"
	rm -rf .ci-replay-dtypes
	$(REPLAY_SWEEP) --dtypes float32,float16 --n-devices 1,2 --cache-dir .ci-replay-dtypes
	test "$$(ls .ci-replay-dtypes/templates/*.npz | wc -l)" -eq 4
	rm -rf .ci-replay-dtypes
	$(REPLAY_GRID_JSON) > .ci-replay-cache/replay.out
	grep -F "56 replayed from" .ci-replay-cache/replay.out
	$(REPLAY_GRID_JSON) --execution symbolic > .ci-replay-cache/symbolic.out
	$(PYTHON) -c "import json, sys; \
	rows = lambda path: [dict(row, wall_s=None) for row in \
	                     json.JSONDecoder().raw_decode(open(path).read())[0]]; \
	sys.exit(rows('.ci-replay-cache/replay.out') != rows('.ci-replay-cache/symbolic.out'))"
	rm -rf .ci-replay-cache

# Fault-tolerance smoke (the CI chaos-smoke leg): the chaos test suite
# (deterministic fault injection, retry/timeout, journal resume, quarantine)
# plus a seeded chaos sweep that must converge through injected faults.
chaos-smoke:
	$(PYTHON) -m pytest tests/test_chaos.py -q
	$(PYTHON) -m repro sweep --models mlp --batch-sizes 16,32 --iterations 1 \
		--chaos-seed 7 --retries 3 --backoff-s 0.01 --timeout 60 \
		--workers 2 --strict --no-cache

# Resume smoke (the CI resume-smoke leg): a small cached sweep with three
# rows that fail deterministically (lenet5 rejects two_cluster's 2-D samples),
# then the same sweep under --resume, which must serve every finished scenario
# from the cache and skip the three failures; the grid leaves exactly one
# journal file, holding only failed lines, and nothing quarantined.
RESUME_SWEEP = $(PYTHON) -m repro sweep --models mlp,lenet5 --batch-sizes 16,32,64 \
	--iterations 1 --workers 2 --cache-dir .ci-resume-cache
resume-smoke:
	rm -rf .ci-resume-cache
	$(RESUME_SWEEP)
	$(RESUME_SWEEP) --resume > .ci-resume-cache/resume.out
	grep -F "(3 cached," .ci-resume-cache/resume.out
	grep -F "3 resume-skipped" .ci-resume-cache/resume.out
	test "$$(ls .ci-resume-cache/journals)" = "$$(basename .ci-resume-cache/journals/*.jsonl)"
	$(PYTHON) -c "import glob, json, sys; \
	header, *records = map(json.loads, open(glob.glob('.ci-resume-cache/journals/*.jsonl')[0])); \
	sys.exit(len(records) != 3 or any(r['status'] != 'failed' for r in records))"
	test ! -e .ci-resume-cache/quarantine
	rm -rf .ci-resume-cache

# Trace-file smoke (the CI trace-smoke leg): first the placement pins and
# invariants (tests/test_placement.py) under the wide hypothesis draw, then
# the trace `repro profile --save-trace` writes must load, pass validate()
# and save back to the same bytes (the file is written from the trace's
# columns and loaded into them), under every allocator's placement of the
# recorded requests.  Four iterations, so the file crosses iterations the
# trainer appended as copies of a steady one.
trace-smoke:
	$(PYTHON) -m pytest -q tests/test_placement.py --hypothesis-profile=placement-wide
	rm -rf .ci-trace-cache
	@set -e; for allocator in caching best_fit bump; do \
		echo "== --allocator $$allocator"; \
		$(PYTHON) -m repro profile --iterations 4 --allocator $$allocator \
			--save-trace .ci-trace-cache/$$allocator.json > /dev/null; \
		$(PYTHON) -c "import sys; from repro.core.trace import MemoryTrace; \
		MemoryTrace.load_json(sys.argv[1]).validate().save_json(sys.argv[2])" \
			.ci-trace-cache/$$allocator.json .ci-trace-cache/$$allocator.again.json; \
		cmp .ci-trace-cache/$$allocator.json .ci-trace-cache/$$allocator.again.json; \
	done
	rm -rf .ci-trace-cache

# Run the data-parallel scaling grid and regenerate the scaling report page
# (docs/figures/scaling.md + its SVGs) from the cached results.
sweep-scaling:
	$(PYTHON) -m repro sweep --models paper_mlp --batch-sizes 4096 \
		--n-devices 1,2,4,8 --interconnects pcie_gen3,nvlink2 --workers 4
	$(PYTHON) -m repro report

# Multi-device smoke (the CI scaling-smoke leg): a cold sweep over replica
# counts with one divisible (one replica class) and one non-divisible (two
# classes) batch size, then the differential suites that hold the class
# sessions to full materialisation and the copied steady iterations to the
# fully simulated trainer (drawn wide: --hypothesis-profile=steady-wide,
# registered in tests/conftest.py).
scaling-smoke:
	$(PYTHON) -m repro sweep --models mlp --batch-sizes 48,50 \
		--n-devices 1,2,3,4 --workers 2 --no-cache
	$(PYTHON) -m pytest tests/test_replica_classes.py -q
	$(PYTHON) -m pytest tests/test_steady_iterations.py -q --hypothesis-profile=steady-wide

clean-cache:
	rm -rf .repro_cache

# Line count of every module under src/repro and their total: the figures
# CHANGES.md and ROADMAP.md quote, so "net-negative" is one command.
loc:
	@find src/repro -name '*.py' | sort | xargs wc -l
