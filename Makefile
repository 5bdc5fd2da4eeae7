# Developer entry points. CI (.github/workflows/ci.yml) invokes exactly
# these targets so local runs and CI runs cannot drift apart.

GO ?= go
BENCH_JSON ?= BENCH_PR15.json
BENCH_MICRO_JSON ?= BENCH_MICRO.json
BENCH_BASELINE ?= bench/BENCH_BASELINE.json
BENCH_THRESHOLD ?= 0.20
# Bandit-vs-portfolio gate: both composites run the smoke corpus on the
# same fixed step budget (the cap makes the slice allocation bind —
# uncapped, every member runs to exhaustion and the comparison is
# vacuous). The gate requires bandit to match or beat portfolio's best
# cost on at least half the scenarios and never be >$(SCHED_GATE) worse.
SCHED_STEPS ?= 120
SCHED_GATE ?= 0.05
# Speculative batch width of the bench-batch-smoke leg (CI runs batch=1
# and batch=8).
BATCH ?= 8

.PHONY: all build test race bench bench-json bench-check bench-baseline bench-batch-smoke bench-diff bench-micro-json dsed-smoke fleet-smoke fleet-report perfbench-check docs-check fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bench smoke: compile and run every benchmark exactly once. Catches rotted
# benchmark code without paying for a full measurement run.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Scenario macro-benchmarks, assembled in two slices: the smoke corpus
# (tiny/small scenarios, sa+list; -cache reruns every cell cache-warm and
# verifies the warm pass bit-identical, recording warm_ms/hits) plus the
# layered-xl SA cell — the cold-throughput pin of the hot-loop perf work.
# Per-cell best cost / front size / evals/s land in $(BENCH_JSON), which
# CI uploads as an artifact so the trajectory accumulates per commit.
bench-json:
	$(GO) run ./cmd/dsebench -smoke -cache -json $(BENCH_JSON)
	$(GO) run ./cmd/dsebench -scenarios layered-xl -strategies sa -json $(BENCH_JSON) -append
	$(GO) run ./cmd/dsebench -smoke -strategies portfolio,bandit -max-steps $(SCHED_STEPS) \
		-sched-gate $(SCHED_GATE) -json $(BENCH_JSON) -append

# The CI regression gate: the same two slices under the race detector,
# with the final (appending) slice comparing the whole merged matrix
# against the committed baseline. Gated per cell: best cost (quality) and
# evals/s (throughput), each at $(BENCH_THRESHOLD) relative worsening;
# exits 3 on any regression. The throughput gate only makes sense
# like-for-like, which is why the baseline below is also race-built.
bench-check:
	$(GO) run -race ./cmd/dsebench -smoke -cache -json $(BENCH_JSON)
	$(GO) run -race ./cmd/dsebench -scenarios layered-xl -strategies sa -json $(BENCH_JSON) -append \
		-baseline $(BENCH_BASELINE) -threshold $(BENCH_THRESHOLD)
	$(GO) run -race ./cmd/dsebench -smoke -strategies portfolio,bandit -max-steps $(SCHED_STEPS) \
		-sched-gate $(SCHED_GATE) -json $(BENCH_JSON) -append

# Regenerate the committed baseline after an intentional quality or speed
# change (new scenarios, retuned budgets, algorithm work). Must mirror
# bench-check's flags exactly — same race detector, same cache mode — or
# the evals/s gate compares incommensurable numbers. Commit the resulting
# file together with the change that explains it.
bench-baseline:
	$(GO) run -race ./cmd/dsebench -smoke -cache -json $(BENCH_BASELINE)
	$(GO) run -race ./cmd/dsebench -scenarios layered-xl -strategies sa -json $(BENCH_BASELINE) -append

# The batched-speculation smoke: two scenarios through the SA hot loop at
# speculative batch width $(BATCH), under the race detector. CI runs
# serial batch=1 and batch=8 as a matrix. The scenario pair spans both
# evaluation paths: layered-small resolves to the full rebuild,
# layered-large to the incremental path, so batch=8 races in-place
# candidate scoring on each. Each leg writes a pprof CPU profile so a
# perf regression in any code path is diagnosable straight from the CI
# artifact.
bench-batch-smoke:
	$(GO) run -race ./cmd/dsebench -scenarios layered-small,layered-large -strategies sa \
		-batch $(BATCH) -json BENCH_BATCH_$(BATCH).json -cpuprofile dsebench_batch$(BATCH).pprof

# Old-vs-new throughput report: per-cell evals/s and best-cost deltas
# between two dsebench result files, no gating. Defaults compare the
# committed baseline against this checkout's fresh $(BENCH_JSON) (run
# `make bench-json` or `make bench-check` first).
BENCH_DIFF_OLD ?= $(BENCH_BASELINE)
BENCH_DIFF_NEW ?= $(BENCH_JSON)
bench-diff:
	$(GO) run ./cmd/dsebench -diff $(BENCH_DIFF_OLD) $(BENCH_DIFF_NEW)

# Measured run of the key micro-benchmarks (the ones whose trajectory the
# perf PRs track), with allocation stats, as a test2json stream.
bench-micro-json:
	$(GO) test -run=NONE -benchmem -json \
		-bench='BenchmarkEvaluateMapping|BenchmarkSA$$|BenchmarkFig2TypicalRun|BenchmarkSAMotionEval|BenchmarkSALayered160Eval|BenchmarkEvalIncremental|BenchmarkEvalFull|BenchmarkExploreMany|BenchmarkPortfolio' \
		. > $(BENCH_MICRO_JSON)
	@grep -c '"Action":"output"' $(BENCH_MICRO_JSON) >/dev/null && echo "wrote $(BENCH_MICRO_JSON)"

# The dsed job-server self-test: serve on a loopback port, submit the
# fig2-small scenario, resubmit it, and assert the resubmission is
# answered from the memoized result cache with bit-identical quality
# fields; then snapshot the cache, boot a fresh server from the file (a
# simulated kill/restart), assert the resubmitted job is a pure cache
# hit, and scrape /v1/metrics for non-zero per-shard hit counters. This
# is the CI smoke for the serving layer.
dsed-smoke:
	$(GO) run ./cmd/dsed -smoke -snapshot /tmp/dsed-smoke.snap

# Distributed smoke: a race-built coordinator fronting three race-built
# workers, loaded by dseload with a two-pass (cold/warm) deterministic
# mixed-scenario replay. Asserts zero errors and a >=90% warm cache-hit
# ratio (the sharded-routing proof), leaves FLEET_SMOKE.json as the
# artifact. This is the CI gate of the fleet layer.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Fleet-vs-single comparison artifact: the identical deterministic
# replay against one dsed and against a 3-worker fleet, with per-pass
# result digests compared for bit-identity. Writes (and, on intentional
# serving-layer changes, recommits) bench/FLEET_PR9_single.json and
# bench/FLEET_PR9_fleet.json.
fleet-report:
	./scripts/fleet_report.sh

# The benchmark harness is its own module (perfbench/go.mod, which
# replaces repro with this checkout), so ./... above never builds it. This
# target vets it and runs its self-tests against the current APIs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Documentation lint: every package (library and command alike) must carry
# a package comment ("// Package x ..." or "// Command x ...").
docs-check:
	@fail=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		if ! grep -q -E '^// (Package|Command) ' $$d/*.go 2>/dev/null; then \
			echo "docs-check: no package comment in $$d"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every package documented"

fmt:
	gofmt -w .

# Fails (with the offending file list) when anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Every target the CI workflow runs, the bench-batch-smoke matrix included.
ci: fmt-check vet docs-check build perfbench-check race bench bench-micro-json bench-check dsed-smoke fleet-smoke
	$(MAKE) bench-batch-smoke BATCH=1
	$(MAKE) bench-batch-smoke BATCH=8
