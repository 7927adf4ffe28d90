package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Meta records how an artifact was produced. Everything that can change a
// result (seed, quick vs full fidelity) or explain a trajectory (jobs,
// wall time, toolchain) lands here; none of it affects the tables, which
// are deterministic.
type Meta struct {
	Quick     bool    `json:"quick"`
	Jobs      int     `json:"jobs"`
	Seed      uint64  `json:"seed"`
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	GoVersion string  `json:"go_version,omitempty"`
	CreatedAt string  `json:"created_at,omitempty"`
	// SimEvents and EventsPerSec report simulation-event throughput when
	// the run carried a metrics registry (repro -metrics); zero otherwise.
	SimEvents    uint64  `json:"sim_events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// Table is the machine-readable form of one result table.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Failure records one job that failed, so a sweep can degrade gracefully:
// the series completes, the affected points read "failed", and the
// artifact carries the provenance. Cause is the error's message —
// structurally stable (no stacks, no addresses), so artifacts with the
// same failures are byte-identical across runs.
type Failure struct {
	Job    string            `json:"job"`
	Labels map[string]string `json:"labels,omitempty"`
	Cause  string            `json:"cause"`
	Err    error             `json:"-"` // the error Cause renders
}

// Failures collects the failed results, in submission order.
func Failures(results []Result) []Failure {
	var out []Failure
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		out = append(out, Failure{Job: r.ID, Labels: r.Labels, Cause: r.Err.Error(), Err: r.Err})
	}
	return out
}

// Artifact is the JSON artifact written per experiment: the same tables
// the text renderer prints, plus run metadata.
type Artifact struct {
	Experiment string    `json:"experiment"`
	Title      string    `json:"title"`
	Meta       Meta      `json:"meta"`
	Tables     []Table   `json:"tables"`
	Notes      []string  `json:"notes,omitempty"`
	Failures   []Failure `json:"failures,omitempty"`
	// Checksum is the SHA-256 (hex) of the result payload — experiment,
	// title, tables, notes, failures; not Meta, which records run
	// circumstances rather than results. Write computes it; ReadArtifact
	// verifies it, so artifact corruption or hand-editing is detected.
	// Artifacts written before checksums existed (empty field) still load.
	Checksum string `json:"checksum,omitempty"`
}

// checksum computes the artifact's payload digest.
func (a *Artifact) checksum() (string, error) {
	payload := struct {
		Experiment string    `json:"experiment"`
		Title      string    `json:"title"`
		Tables     []Table   `json:"tables"`
		Notes      []string  `json:"notes,omitempty"`
		Failures   []Failure `json:"failures,omitempty"`
	}{a.Experiment, a.Title, a.Tables, a.Notes, a.Failures}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Write seals the artifact and stores it as dir/<experiment>.json,
// returning the path: Checksum is (re)computed over the payload, then the
// whole artifact is written as indented, newline-terminated JSON.
func (a *Artifact) Write(dir string) (string, error) {
	if a.Experiment == "" {
		return "", fmt.Errorf("runner: artifact has no experiment id")
	}
	sum, err := a.checksum()
	if err != nil {
		return "", err
	}
	a.Checksum = sum
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, a.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadArtifact loads an artifact written by Write.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("runner: %s: %w", path, err)
	}
	if a.Checksum != "" {
		sum, err := a.checksum()
		if err != nil {
			return nil, err
		}
		if sum != a.Checksum {
			return nil, fmt.Errorf("runner: %s: checksum mismatch (artifact corrupted or edited): have %s, computed %s",
				path, a.Checksum, sum)
		}
	}
	return a, nil
}
