# Development targets. `make check` is the tier-1 gate: vet, build,
# test, the race detector over the whole module, simlint — the
# determinism/invariant static-analysis suite (internal/lint, see
# DESIGN.md "Determinism invariants") — the benchmark module's own tests,
# and the job-server smoke test.

GO ?= go
SHELL := /bin/bash

.PHONY: check vet build test race lint lint-sarif serve-smoke bench-test fix-verify bench regen trace-demo chaos campaign

check: vet build test race lint bench-test serve-smoke

vet:
	$(GO) vet ./...

# lint runs the simlint suite — the syntactic checks (wallclock,
# globalstate, maprange, goroutine, mathrand, errcheck) plus the SSA
# dataflow rules (timetaint, rngprovenance, floatorder) and
# stale-allow hygiene. Exits nonzero on any active finding; -stats
# prints the per-rule tally, including suppressions, on stderr.
lint:
	$(GO) run ./cmd/simlint -stats

# lint-sarif emits the same findings as a SARIF 2.1.0 log (simlint.sarif)
# for code-review tooling; suppressed findings are carried with their
# allow-state rather than dropped.
lint-sarif:
	$(GO) run ./cmd/simlint -format sarif > simlint.sarif || true
	@echo "wrote simlint.sarif"

# fix-verify regenerates every experiment's artifacts into a scratch
# directory and diffs them against the checked-in results/, proving that
# a refactor (e.g. a lint-driven fix) left the default output
# byte-identical. The .txt tables must match exactly; the .json
# artifacts embed per-run metadata by design (wall_ms, created_at, the
# jobs count, which defaults to the host's core count, and — on
# instrumented runs — sim_events / events_per_sec, which depend on host
# speed and on whether the fabric fast path was pinned off; see
# internal/runner artifacts), so those fields are filtered before
# comparing. The scratch directory is removed on success and left in
# place on failure for inspection. Full fidelity takes ~15 min on one
# core.
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

# serve-smoke boots the simd job server on an ephemeral port, POSTs a
# quick fig1a job, follows the SSE stream to completion, asserts the
# second identical POST is a cache hit with the same checksum, and
# checks SIGTERM drains cleanly.
serve-smoke:
	./scripts/serve-smoke.sh

# bench-test runs the host-time benchmark's own tests (bench/ is a
# separate Go module, so the root `go test ./...` never builds it, yet
# it imports internal/lint, internal/platform and the app skeletons).
# The benchmark itself runs with `bash bench/run.sh`; see bench/README.md.
bench-test:
	cd bench && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x

regen:
	$(GO) run ./cmd/repro -exp all -out results

# chaos runs the whole suite under a fixed-seed randomized fault storm on
# every fabric, with per-job retries on, serial and parallel, and asserts
# the two runs are byte-identical: fault injection, recovery, and the
# runner's failure handling are all deterministic functions of (spec,
# seed). An experiment that dies under the storm (e.g. an IB QP error
# after retry exhaustion) is a legitimate deterministic outcome, so a
# nonzero repro exit is tolerated — but the SAME experiments must survive
# at every worker count, which the directory diff enforces (a missing or
# extra artifact fails it). The .txt tables must match exactly; .json
# artifacts are compared modulo the same per-run metadata as fix-verify
# plus the jobs count, which differs between the legs by construction.
#
# Each leg runs under -chaos-strict rather than `|| true`: an experiment
# the storm deterministically kills (IB retry-budget exhaustion) is a
# tolerated outcome and the leg still exits 0, but any OTHER failure —
# a panic, a timeout, a real bug the storm shook loose — fails the
# target instead of being silently swallowed.
chaos:
	rm -rf .chaos-1 .chaos-n
	$(GO) run ./cmd/repro -exp all -quick -faults storm:2026 -retries 2 -chaos-strict -jobs 1 -out .chaos-1 >/dev/null
	$(GO) run ./cmd/repro -exp all -quick -faults storm:2026 -retries 2 -chaos-strict -jobs 8 -out .chaos-n >/dev/null
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
# fig1b bidirectional-bandwidth runs.
trace-demo:
	$(GO) run ./cmd/repro -exp fig1b -quick -metrics trace-demo-metrics.json -tracefile trace-demo.json
	@echo "wrote trace-demo-metrics.json and trace-demo.json (load in chrome://tracing)"
