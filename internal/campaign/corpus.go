package campaign

// The reproducer corpus: every shrunk violation is emitted as a canonical,
// checksummed JSON spec. Checked-in corpus files are replayed by
// TestCampaignCorpus as a permanent regression gate — a reproducer that
// once exposed a bug must keep reporting zero violations after the fix.
// Checksums make a reproducer tamper-evident (BC-11): Replay refuses a
// file whose payload no longer matches its recorded digest.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Reproducer is one shrunk violation, self-contained: the contract it
// broke, the minimized scenario, and the shrink lineage that produced it.
type Reproducer struct {
	Contract string   `json:"contract"`
	Name     string   `json:"name,omitempty"`
	Detail   string   `json:"detail"`
	Scenario Scenario `json:"scenario"`
	Lineage  []string `json:"lineage,omitempty"`
	// Checksum is the hex SHA-256 of the canonical payload (everything
	// above); Verify recomputes and compares it.
	Checksum string `json:"checksum"`
}

// NewReproducer builds a sealed reproducer.
func NewReproducer(contract, detail string, sc Scenario, lineage []string) Reproducer {
	r := Reproducer{
		Contract: contract,
		Name:     contractName(contract),
		Detail:   detail,
		Scenario: sc,
		Lineage:  lineage,
	}
	r.Checksum = r.computeChecksum()
	return r
}

func (r *Reproducer) computeChecksum() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contract=%s\ndetail=%s\nscenario=%s\n", r.Contract, r.Detail, r.Scenario.Canonical())
	for _, step := range r.Lineage {
		fmt.Fprintf(&b, "lineage=%s\n", step)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Verify checks the recorded checksum against the payload.
func (r *Reproducer) Verify() error {
	if want := r.computeChecksum(); r.Checksum != want {
		return fmt.Errorf("campaign: reproducer checksum mismatch: recorded %.12s, payload hashes to %.12s", r.Checksum, want)
	}
	return nil
}

// FileName is the canonical corpus file name: the lower-cased contract ID
// plus the first 8 checksum hex digits.
func (r *Reproducer) FileName() string {
	return fmt.Sprintf("%s-%.8s.json", strings.ToLower(r.Contract), r.Checksum)
}

// WriteReproducer seals (if needed) and writes the reproducer into dir,
// creating it if necessary. It returns the file path.
func WriteReproducer(dir string, r *Reproducer) (string, error) {
	if r.Checksum == "" {
		r.Checksum = r.computeChecksum()
	}
	if err := r.Verify(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.FileName())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCorpus reads every bc-*.json reproducer in dir (sorted by name, so
// iteration order is stable), verifying each checksum. Only contract-named
// files are reproducers; any other file in dir is not a corpus entry. A
// missing dir is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Reproducer, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "bc-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]Reproducer, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Reproducer
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("campaign: corpus %s: %w", filepath.Base(path), err)
		}
		if err := r.Verify(); err != nil {
			return nil, fmt.Errorf("campaign: corpus %s: %w", filepath.Base(path), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Replay re-runs a reproducer's scenario through the full contract check
// after verifying its integrity, returning whatever violations it still
// produces. The corpus regression gate asserts none; the canary self-test
// asserts the smuggled breach still fires.
func Replay(r *Reproducer, cfg *Config) ([]Violation, error) {
	if err := r.Verify(); err != nil {
		return nil, err
	}
	vs, _, err := check(r.Scenario, cfg)
	return vs, err
}
