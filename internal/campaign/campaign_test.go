package campaign

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/units"
)

// canarySpec is the smuggled breach used by the self-tests: total loss on
// rank 0's injection link for a bounded window, installed on every machine
// but declared to no contract — every loss it causes is a BC-5 violation.
const canarySpec = "loss:link(0):p=1:at=5us:for=50us"

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 20)
	b := Generate(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed (seed, count)")
	}
	if prefix := Generate(7, 8); !reflect.DeepEqual(a[:8], prefix) {
		t.Fatal("Generate(seed, 8) is not a prefix of Generate(seed, 20)")
	}
	if c := Generate(8, 20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenario batches")
	}
}

// TestGenerateValid: every generated scenario is buildable — the topology
// exists and the fault spec compiles against it (and is explicit, never a
// storm shorthand, so it composes and shrinks).
func TestGenerateValid(t *testing.T) {
	for _, sc := range Generate(DefaultSeed, 64) {
		clos, err := sc.Clos()
		if err != nil {
			t.Fatalf("%s: topology: %v", sc.Name, err)
		}
		if strings.HasPrefix(sc.Faults, "storm:") {
			t.Fatalf("%s: generator emitted a storm shorthand: %q", sc.Name, sc.Faults)
		}
		if sc.Faults != "" {
			if _, err := fault.Compile(sc.Faults, clos); err != nil {
				t.Fatalf("%s: fault spec %q: %v", sc.Name, sc.Faults, err)
			}
		}
	}
}

func TestScenarioJSONRoundtrip(t *testing.T) {
	for _, sc := range Generate(3, 10) {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("JSON roundtrip mutated scenario:\n got: %+v\nwant: %+v", back, sc)
		}
		if sc.Canonical() != back.Canonical() {
			t.Fatalf("canonical encoding diverged after roundtrip")
		}
	}
}

// TestCampaignCleanAndJobsInvariance: on a clean tree a fixed-seed campaign
// finds zero violations, and the report digest is identical at any worker
// count (BC-10).
func TestCampaignCleanAndJobsInvariance(t *testing.T) {
	r1, err := Run(Config{Count: 8, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Violations) != 0 {
		t.Fatalf("clean tree produced %d violation(s); first: %s %s",
			len(r1.Violations), r1.Violations[0].Contract, r1.Violations[0].Detail)
	}
	r8, err := Run(Config{Count: 8, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r8.Digest {
		t.Fatalf("BC-10 jobs-invariance: digest at jobs=1 (%.12s) != jobs=8 (%.12s)", r1.Digest, r8.Digest)
	}
}

// TestCampaignCanary: the end-to-end self-test the issue demands. A
// deliberately smuggled invariant breach (undeclared total loss on link 0)
// must be (1) found within a bounded budget, (2) shrunk to a reproducer
// that still violates, (3) deterministic — its replay reports no BC-8
// breach across the determinism legs — and (4) replayable from the corpus
// file the campaign wrote.
func TestCampaignCanary(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Count:        6,
		Jobs:         4,
		Smuggle:      canarySpec,
		CorpusDir:    dir,
		ShrinkBudget: 24,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("campaign failed to catch the smuggled breach")
	}
	var canary *Reproducer
	for i := range rep.Violations {
		if rep.Violations[i].Contract == "BC-5" {
			canary = &rep.Violations[i]
			break
		}
	}
	if canary == nil {
		t.Fatalf("no BC-5 fault-containment violation among %d caught", len(rep.Violations))
	}

	// (2) the shrunk reproducer still violates...
	replayCfg := Config{Smuggle: canarySpec}
	vs, err := Replay(canary, &replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("shrunk reproducer no longer violates BC-5; got %+v", vs)
	}
	// (3) ...deterministically: the check's own two determinism legs
	// found no divergence.
	if hasContract(vs, "BC-8") {
		t.Fatal("reproducer replay is nondeterministic (BC-8)")
	}

	// (4) and replays from the corpus file with verified integrity.
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fromDisk *Reproducer
	for i := range corpus {
		if corpus[i].Checksum == canary.Checksum {
			fromDisk = &corpus[i]
			break
		}
	}
	if fromDisk == nil {
		t.Fatalf("canary reproducer not found in corpus dir (%d files)", len(corpus))
	}
	vs, err = Replay(fromDisk, &replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatal("corpus copy of the reproducer no longer violates BC-5")
	}
	// Without the smuggled fault the reproducer's scenario is clean — the
	// regression-gate semantics corpus replay relies on.
	vs, err = Replay(fromDisk, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("reproducer violates even without the smuggled fault: %+v", vs)
	}
}

// TestReproducerIntegrity: a tampered reproducer is refused (BC-11).
func TestReproducerIntegrity(t *testing.T) {
	sc := Generate(1, 1)[0]
	r := NewReproducer("BC-5", "detail", sc, []string{"step"})
	if err := r.Verify(); err != nil {
		t.Fatalf("fresh reproducer fails verification: %v", err)
	}
	tampered := r
	tampered.Detail = "rewritten"
	if err := tampered.Verify(); err == nil {
		t.Fatal("tampered reproducer passed verification")
	}
	if _, err := Replay(&tampered, &Config{}); err == nil {
		t.Fatal("Replay accepted a tampered reproducer")
	}
}

// TestShrink: greedy minimization strips everything not needed to keep the
// violation alive — here the declared plan and most of the workload,
// since the smuggled loss alone breaks BC-5.
func TestShrink(t *testing.T) {
	cfg := Config{Smuggle: canarySpec, ShrinkBudget: 32}
	sc := Scenario{
		Name: "shrink-seed", Network: "IB", Ranks: 8, PPN: 2, Radix: 4,
		Workload: "stream", Size: 32 * units.KiB, Iters: 8,
		Faults: "degrade:all:bw=0.5",
	}
	vs, _, err := check(sc, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("seed scenario does not violate BC-5: %+v", vs)
	}
	min, lineage := shrink(sc, "BC-5", &cfg)
	if len(lineage) == 0 {
		t.Fatal("shrink accepted no step on an over-specified scenario")
	}
	if min.Faults != "" {
		t.Fatalf("the irrelevant declared plan survived shrinking: %q", min.Faults)
	}
	if min.Ranks > sc.Ranks || min.Iters > sc.Iters || min.Size > sc.Size {
		t.Fatalf("shrink grew the scenario: %+v", min)
	}
	vs, _, err = check(min, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-5") {
		t.Fatalf("minimized scenario no longer violates BC-5: %+v", vs)
	}
}

// TestCampaignCorpus replays every checked-in reproducer: integrity
// verified, and zero violations on the current tree (the corpus is the
// permanent regression gate; entries record once-caught breaches whose
// causes are gone — e.g. the canary's smuggled fault, absent here).
func TestCampaignCorpus(t *testing.T) {
	corpus, err := LoadCorpus("../../corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("checked-in corpus is empty")
	}
	for i := range corpus {
		r := &corpus[i]
		t.Run(r.FileName(), func(t *testing.T) {
			vs, err := Replay(r, &Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 0 {
				t.Fatalf("reproducer regressed: %s %s: %s", vs[0].Contract, vs[0].Name, vs[0].Detail)
			}
		})
	}
}

// killScenario is an IB ping-pong whose fault plan takes rank 0's
// injection link down for longer than the RC retry ladder lasts: its QP
// exhausts the retry budget and the run ends early, by the plan's design.
var killScenario = Scenario{
	Name: "kill", Network: "IB", Ranks: 2, PPN: 1,
	Workload: "pingpong", Size: 4 * units.KiB, Iters: 4,
	Faults: "down:inj(0):at=1us:for=1s",
}

// starvedBudget is an event budget too small for killScenario to reach
// its kill: the run fails on the budget instead.
const starvedBudget = 50

// TestBC1ToleratesOnlyPlanKills: a run the declared plan kills holds BC-1,
// and the same scenario failing for any other reason (here its event
// budget) violates it.
func TestBC1ToleratesOnlyPlanKills(t *testing.T) {
	if out := runProbed(&killScenario, killScenario.Faults, nil, DefaultEventBudget); !errors.Is(out.runErr, ib.ErrRetryExhausted) {
		t.Fatalf("kill scenario ended with %v, want retry-budget exhaustion", out.runErr)
	}
	vs, _, err := check(killScenario, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hasContract(vs, "BC-1") {
		t.Fatalf("a kill by the declared plan violates BC-1: %+v", vs)
	}
	vs, _, err = check(killScenario, &Config{EventBudget: starvedBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !hasContract(vs, "BC-1") {
		t.Fatalf("a run that ran out of events holds BC-1: %+v", vs)
	}
}

// TestErrorDigest: a failed run digests its error, so the same failure
// twice gives one digest and a different failure another.
func TestErrorDigest(t *testing.T) {
	a := runProbed(&killScenario, killScenario.Faults, nil, DefaultEventBudget)
	b := runProbed(&killScenario, killScenario.Faults, nil, DefaultEventBudget)
	starved := runProbed(&killScenario, killScenario.Faults, nil, starvedBudget)
	if a.runErr == nil || starved.runErr == nil {
		t.Fatalf("runs did not fail: kill %v, starved %v", a.runErr, starved.runErr)
	}
	if a.digest != b.digest {
		t.Fatalf("one failure, two digests: %.12s != %.12s", a.digest, b.digest)
	}
	if a.digest == starved.digest {
		t.Fatalf("a fault kill and an event-limit failure share digest %.12s", a.digest)
	}
}
