// Package lint is simlint: a static-analysis suite that enforces the
// simulator's determinism invariants by construction rather than by
// integration test. Every paper-reproduction number in this repository
// rests on the claim that a run is a pure function of (configuration,
// seed); these analyzers make the common ways of breaking that claim
// mechanical to detect.
//
// # The syntactic invariants
//
//  1. wallclock — no time.Now/Since/Until/Sleep or timer/ticker
//     construction in deterministic packages. Simulated code reads the
//     sim clock; host time would couple results to machine speed.
//  2. globalstate — no package-level vars written outside init.
//     Cross-run mutable state makes a sweep's Nth result depend on the
//     previous N-1.
//  3. maprange — no map iteration feeding anything order-sensitive
//     (output calls, channel sends, float accumulation, unsorted
//     appends). Go randomizes map order per run by design.
//  4. goroutine — no go statements in deterministic packages. Simulated
//     processes are coroutines the engine switches one at a time; raw
//     goroutines reintroduce scheduler races.
//  5. mathrand — no math/rand imports outside internal/rng; all
//     randomness must come from seeded, replayable streams.
//  6. errcheck — no silently discarded error results from this module's
//     own APIs (artifact/report/trace writers especially).
//
// # The dataflow invariants
//
// Rules 7–9 follow values rather than call sites. Each is a go/types
// check over one function at a time, closures included: a flow-
// insensitive taint set keys locals by their types.Object (so a capture
// is the variable it captures) and struct fields by selector path (so
// h.n can carry a value that its sibling h.m does not):
//
//  7. timetaint — no host-clock-tainted value may reach a sim
//     scheduling call, an artifact payload field, or report output; and
//     the host time types must never interconvert with the sim-time
//     units types, in either direction.
//  8. rngprovenance — every rng.New key must trace to a seed
//     parameter: constant keys, keys written identically twice in one
//     function, and keys that use nothing the enclosing loop changes
//     are flagged.
//  9. floatorder — no float accumulation ordered by channel receive
//     order or goroutine/completion-callback execution order; float
//     addition is not associative.
//  10. staleallow — no //simlint:allow annotation that suppresses
//     nothing (judged only against checks that actually ran), and no
//     unknown check names.
//
// Rules 1–4 and 7–8 run on every internal/ package; rules 5–6, 9 and 10
// also cover the root package, cmd/ drivers, and examples (floatorder
// because cmd/repro assigns the runner's completion callback).
// DESIGN.md's "Determinism invariants" section records the rationale
// for each rule.
//
// # Annotation grammar
//
// A sanctioned exception is annotated at the site it occurs:
//
//	//simlint:allow check[,check...] [— free-text reason]
//
// where each check is an analyzer name above (or "all"). The annotation
// suppresses the named checks on its own line and on the line
// immediately following, so both forms work:
//
//	start := time.Now() //simlint:allow wallclock — progress/ETA only
//
//	//simlint:allow wallclock — progress/ETA only
//	start := time.Now()
//
// The reason text is free-form but expected: an allow without a why is
// a review smell. Annotations are deliberately line-scoped — there is no
// file- or package-level escape hatch, so every exception is visible at
// its use site.
//
// # Running
//
// `make lint` (or `go run ./cmd/simlint`) loads the module without the
// go command — module packages are parsed and type-checked from source,
// stdlib dependencies through go/importer's source importer — and exits
// nonzero listing any active findings on stdout. Every run also prints
// the per-rule tally on stderr: active findings and those suppressed by
// an allow annotation. The suite also runs inside `make check` and is
// asserted clean over the real tree by TestRepoTreeIsClean.
package lint
