package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"strings"
)

// Spec is the canonical description of one experiment run: the unit the
// job server accepts, deduplicates, and caches on. It names everything
// that determines the result bytes — experiment, fidelity, seed, fault
// plan — and nothing that merely changes how fast the run completes
// (worker counts, timeouts, retries stay out; results are byte-identical
// at any Jobs, so two requests differing only in execution knobs share
// one cached artifact).
type Spec struct {
	// Experiment is a registered experiment id (see Catalog).
	Experiment string `json:"experiment"`
	// Quick selects the reduced sweeps (Options.Quick).
	Quick bool `json:"quick,omitempty"`
	// Seed is the suite seed recorded in artifacts. 0 means
	// CanonicalSeed; every workload in the suite is keyed to the
	// canonical seed, so any other value is rejected by Normalized.
	Seed uint64 `json:"seed,omitempty"`
	// Faults is a fault plan installed on every simulated fabric
	// (internal/fault spec language or "storm:<seed>"); empty means a
	// clean fabric.
	Faults string `json:"faults,omitempty"`
}

// Normalized validates the spec and returns its canonical form: ids and
// fault plans trimmed, the default seed made explicit. Two requests that
// normalize equal denote the same simulation.
func (s Spec) Normalized() (Spec, error) {
	s.Experiment = strings.TrimSpace(s.Experiment)
	s.Faults = strings.TrimSpace(s.Faults)
	if s.Experiment == "" {
		return Spec{}, fmt.Errorf("experiments: spec has no experiment id")
	}
	if _, err := Get(s.Experiment); err != nil {
		return Spec{}, err
	}
	if s.Seed == 0 {
		s.Seed = CanonicalSeed
	}
	if s.Seed != CanonicalSeed {
		return Spec{}, fmt.Errorf("experiments: seed %d not runnable: the suite's workloads are keyed to the canonical seed %d",
			s.Seed, CanonicalSeed)
	}
	return s, nil
}

// Canonical returns the deterministic text encoding cache keys are
// derived from: fixed field order, explicit defaults, the fault plan
// query-escaped so it cannot alias the separators.
func (s Spec) Canonical() string {
	quick := "0"
	if s.Quick {
		quick = "1"
	}
	seed := s.Seed
	if seed == 0 {
		seed = CanonicalSeed
	}
	return fmt.Sprintf("experiment=%s&quick=%s&seed=%d&faults=%s",
		url.QueryEscape(s.Experiment), quick, seed, url.QueryEscape(s.Faults))
}

// Key returns the content address of this spec's result under a given
// code version: the SHA-256 (hex) over the canonical encoding and the
// version. Identical (spec, version) pairs collide by construction —
// that collision is the cache hit.
func (s Spec) Key(codeVersion string) string {
	sum := sha256.Sum256([]byte(s.Canonical() + "\x00" + codeVersion))
	return hex.EncodeToString(sum[:])
}

// Run executes the spec's experiment with the spec's result-determining
// fields overriding the corresponding options; execution knobs (Jobs,
// Timeout, Retries, Ctx, observers) are taken from o as given — they never
// appear in the canonical key because results are byte-identical at any
// value.
func (s Spec) Run(o Options) (*Result, error) {
	e, err := Get(s.Experiment)
	if err != nil {
		return nil, err
	}
	o.Quick = s.Quick
	o.Faults = s.Faults
	return e.Run(o)
}
