# Development targets. `make check` is the tier-1 gate: gofmt, vet (of
# the bench module too), build, test, the race detector over the whole
# module, simlint — the determinism/invariant static-analysis suite
# (internal/lint, see DESIGN.md "Determinism invariants") — the
# benchmark module's own tests, one iteration of every kernel
# microbenchmark (bench-run), and a run of every example program
# (examples).

GO ?= go
SHELL := /bin/bash

.PHONY: check fmt vet build test race lint bench-test bench-run examples bench-smoke fix-verify bench regen trace-demo chaos campaign cover

check: fmt vet build test race lint bench-test bench-run examples

# fmt fails, listing the files, if any Go file in the tree (bench/
# included) is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# vet covers the bench module too: it is a module of its own, so the
# root ./... never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# lint runs the simlint suite — the syntactic checks (wallclock,
# globalstate, maprange, goroutine, mathrand, errcheck) plus the go/types
# dataflow rules (timetaint, rngprovenance, floatorder) and
# stale-allow hygiene. Exits nonzero on any active finding and prints
# the per-rule tally, including suppressions, on stderr.
lint:
	$(GO) run ./cmd/simlint

# fix-verify regenerates every experiment's artifacts into a scratch
# directory and diffs them against the checked-in results/, proving that
# a refactor (e.g. a lint-driven fix) left the default output
# byte-identical. The .txt tables must match exactly; the .json
# artifacts embed per-run metadata by design (wall_ms, created_at, the
# jobs count, which defaults to the host's core count, and — on
# instrumented runs — sim_events / events_per_sec, which depend on host
# speed; see internal/runner artifacts), so those fields are filtered before
# comparing. The scratch directory is removed on success and left in
# place on failure for inspection. Full fidelity takes about 1.5 min on
# a 2-vCPU host.
fix-verify:
	rm -rf .fix-verify-results
	$(GO) run ./cmd/repro -exp all -out .fix-verify-results >/dev/null
	diff -ru --exclude=README.md --exclude='*.json' results .fix-verify-results
	@for f in results/*.json; do \
		b=$$(basename $$f); \
		diff <(grep -vE '"(wall_ms|created_at|jobs|sim_events|events_per_sec|checksum)"' $$f) \
		     <(grep -vE '"(wall_ms|created_at|jobs|sim_events|events_per_sec|checksum)"' .fix-verify-results/$$b) \
			|| { echo "fix-verify: $$b differs beyond per-run metadata"; exit 1; }; \
	done
	rm -rf .fix-verify-results
	@echo "results/ verified byte-identical (modulo per-run metadata in .json)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-test runs the host-time benchmark's own tests (bench/ is a
# separate Go module, so the root `go test ./...` never builds it, yet
# it imports internal/lint, internal/platform and the app skeletons).
# The benchmark itself runs with `bash bench/run.sh`; see bench/README.md.
bench-test:
	cd bench && $(GO) test ./...

# bench-run runs every Benchmark function under internal/ once, so one
# that no longer runs fails here and not when someone next measures with
# it. One iteration each measures nothing. ~7 s on a 2-vCPU host.
bench-run:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# examples runs every program under examples/, discarding its output, and
# fails naming the first that exits non-zero. Building them proves only
# that they compile; running them exercises the library surface they
# show, such as the requests halo2d, overlap and profile wait on. ~2 s
# on a 2-vCPU host once built.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d >/dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# cover runs the tier-1 tests with coverage of every package, blocks
# merged across test binaries, and lists the functions outside cmd/ and
# examples/ that no test runs. On demand, not part of check. ~30 s on a
# 2-vCPU host.
cover:
	@$(GO) test -coverpkg=./... -coverprofile=.cover.out ./... | grep -vE '^(ok|\?) |coverage: '; test $${PIPESTATUS[0]} -eq 0
	@$(GO) tool cover -func=.cover.out | awk '$$NF == "0.0%" && $$1 !~ /^repro\/(cmd|examples)\//'

# bench-smoke runs every benchmark workload end to end: a warm-up and
# three passes each, checking every simulation's digest against
# bench/golden.json (bench-test checks only the smallest simulation of
# each workload). ~17 s on a 2-vCPU host.
BENCH_WORKLOADS := wavefront halo beff bulk

bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seconds 0 || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x

regen:
	$(GO) run ./cmd/repro -exp all -out results

# chaos runs the whole suite under a fixed-seed randomized fault storm on
# every fabric, serial and parallel, and asserts the two runs are
# byte-identical: fault injection, recovery, and the runner's failure
# handling are all deterministic functions of (spec, seed). An experiment
# or sweep point that dies under the storm (e.g. an IB QP error after
# retry exhaustion) is a legitimate deterministic outcome — the point
# reads "failed" — but the SAME experiments must survive at every worker
# count, which the directory diff enforces (a missing or extra artifact
# fails it). The .txt tables must match exactly; .json
# artifacts are compared modulo the same per-run metadata as fix-verify
# plus the jobs count, which differs between the legs by construction.
# Each leg also writes its metrics registry snapshot (metrics.json) into
# its directory, so the same .json diff checks that every counter, gauge
# and histogram is identical at both worker counts.
#
# Neither leg masks its exit status: under -faults, repro tolerates an
# experiment or point the plan deterministically kills (IB retry-budget
# exhaustion) and still exits 0, but any OTHER failure — a panic, a
# timeout, a real bug the storm shook loose — fails the target.
chaos:
	rm -rf .chaos-1 .chaos-n
	$(GO) run ./cmd/repro -exp all -quick -faults storm:2026 -jobs 1 -out .chaos-1 -metrics .chaos-1/metrics.json >/dev/null
	$(GO) run ./cmd/repro -exp all -quick -faults storm:2026 -jobs 8 -out .chaos-n -metrics .chaos-n/metrics.json >/dev/null
	@ls .chaos-1/*.txt >/dev/null 2>&1 || { echo "chaos: no experiment survived the storm"; exit 1; }
	diff -ru --exclude='*.json' .chaos-1 .chaos-n
	@for f in .chaos-1/*.json; do \
		b=$$(basename $$f); \
		diff <(grep -vE '"(wall_ms|created_at|sim_events|events_per_sec|jobs)"' $$f) \
		     <(grep -vE '"(wall_ms|created_at|sim_events|events_per_sec|jobs)"' .chaos-n/$$b) \
			|| { echo "chaos: $$b differs between .chaos-1 and .chaos-n"; exit 1; }; \
	done
	rm -rf .chaos-1 .chaos-n
	@echo "chaos: storm:2026 deterministic across worker counts"

# campaign runs the behavioral-contract exploration engine
# (internal/campaign) over a fixed-seed batch of generated scenarios:
# fault plans × topologies × workloads × protocol thresholds, each
# checked against the per-scenario contracts of the BC catalog, with
# violations auto-shrunk to minimal reproducers written into corpus/.
# Deterministic: the same seed prints the same report digest at any job
# count. Exits nonzero on any violation. ~1s at the default size; raise
# CAMPAIGN_N for a deeper sweep.
CAMPAIGN_N ?= 64
CAMPAIGN_SEED ?= 2026

campaign:
	$(GO) run ./cmd/repro -campaign $(CAMPAIGN_N) -campaign-seed $(CAMPAIGN_SEED) -campaign-corpus corpus

# trace-demo produces sample observability artifacts: a counters snapshot
# and a chrome://tracing (or ui.perfetto.dev) loadable timeline of the
# fig1b bidirectional-bandwidth runs. It fails if recording the timeline
# changed the snapshot: the untraced one must be byte-identical.
trace-demo:
	$(GO) run ./cmd/repro -exp fig1b -quick -metrics trace-demo-metrics-untraced.json
	$(GO) run ./cmd/repro -exp fig1b -quick -metrics trace-demo-metrics.json -tracefile trace-demo.json
	diff trace-demo-metrics-untraced.json trace-demo-metrics.json
	@echo "wrote trace-demo-metrics.json and trace-demo.json (load in chrome://tracing)"
