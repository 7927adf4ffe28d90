package campaign

// The behavioral-contract catalog. Each contract has a stable BC-style ID
// (the naming convention of SNIPPETS.md snippet 1) and states one
// invariant the simulator must hold on every generated scenario. A
// violation carries the contract ID, the offending scenario, and a
// deterministic detail string; the shrinker minimizes the scenario while
// preserving the (contract, still-violates) pair.
//
//	BC-1  progress          a run terminates without deadlock and within
//	                        the event budget; the only acceptable failure
//	                        is IB retry-budget exhaustion under a declared
//	                        fault plan (a modeled outcome, paper §3)
//	BC-2  monotone-degrade  injecting faults never makes a workload
//	                        complete earlier than its clean baseline
//	                        (scoped away from Elan adaptive route-around,
//	                        which may legitimately reshuffle contention)
//	BC-3  conserve-msgs     every fabric message retires exactly once:
//	                        delivered + dropped == initiated
//	BC-4  conserve-bytes    payload bytes are conserved across retirement:
//	                        delivered bytes + dropped bytes == sent bytes
//	BC-5  fault-containment no chunk loss or down-link stall occurs
//	                        outside a declared loss/down window on that
//	                        link (half-open [at, at+for))
//	BC-6  (retired)         Elan per-sender order; the NIC refuses to
//	                        match an envelope its sequencer has not
//	                        released, so a breach panics the run, fails
//	                        TestPerSenderOrderingPreserved and BC-1; its
//	                        ID is not reused
//	BC-7  (retired)         IB exactly-once delivery; HCA.reliable's
//	                        delivered flag absorbs duplicates before any
//	                        probe could see them, and a duplicate that got
//	                        through fails TestDuplicateDeliverySuppressed
//	                        and BC-1; its ID is not reused
//	BC-8  determinism       two identical runs produce identical digests
//	BC-9  (retired)         kernel equivalence; retired with the second
//	                        simulation kernel, its ID is not reused
//	BC-10 jobs-invariance   the campaign report digest is identical at any
//	                        worker count (checked by TestCampaignJobs)
//	BC-11 artifact-integrity corpus reproducers and runner artifacts are
//	                        checksummed and verified on load (checked by
//	                        TestCampaignCorpus and the runner tests)

// Contract is one catalog entry.
type Contract struct {
	ID   string
	Name string
}

// Catalog lists every behavioral contract the campaign checks, in ID
// order. BC-10 and BC-11 are meta-contracts checked by the test suite
// rather than per scenario. BC-6, BC-7 and BC-9 are retired and absent;
// the later IDs keep their numbers.
var Catalog = []Contract{
	{"BC-1", "progress"},
	{"BC-2", "monotone-degrade"},
	{"BC-3", "conserve-msgs"},
	{"BC-4", "conserve-bytes"},
	{"BC-5", "fault-containment"},
	{"BC-8", "determinism"},
	{"BC-10", "jobs-invariance"},
	{"BC-11", "artifact-integrity"},
}

// contractName resolves an ID to its catalog name ("" if unknown).
func contractName(id string) string {
	for _, c := range Catalog {
		if c.ID == id {
			return c.Name
		}
	}
	return ""
}

// Violation is one contract breach on one scenario. Detail is
// deterministic (no wall-clock, no addresses), so identical trees produce
// identical violations.
type Violation struct {
	Contract string   `json:"contract"`
	Name     string   `json:"name,omitempty"`
	Scenario Scenario `json:"scenario"`
	Detail   string   `json:"detail"`
}

func violation(id string, sc Scenario, detail string) Violation {
	return Violation{Contract: id, Name: contractName(id), Scenario: sc, Detail: detail}
}
