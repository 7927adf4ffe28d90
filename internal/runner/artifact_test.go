package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := &Artifact{
		Experiment: "fig1a",
		Title:      "Ping-pong latency",
		Meta:       Meta{Quick: true, Jobs: 8, Seed: 42, WallMS: 12.5, GoVersion: "go1.x"},
		Tables: []Table{{
			Title:   "Figure 1(a)",
			Headers: []string{"size", "Elan4 us", "IB us"},
			Rows:    [][]string{{"0 B", "2.81", "6.25"}, {"1 KiB", "6.6", "12.0"}},
		}},
		Notes: []string{"paper anchor: ratio ~2"},
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "fig1a.json") {
		t.Fatalf("path = %q", path)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", a, got)
	}

	// The file must be valid, indented JSON with stable keys.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"experiment", "title", "meta", "tables"} {
		if _, ok := m[key]; !ok {
			t.Errorf("artifact JSON lacks %q", key)
		}
	}
}

// TestReadArtifactDetectsCorruption tampers with a stored artifact in a
// way that keeps the JSON parsable — only the payload drifts from the
// recorded SHA-256 — and asserts the read refuses it.
func TestReadArtifactDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	a := &Artifact{
		Experiment: "fig1a",
		Title:      "Ping-pong latency",
		Tables: []Table{{
			Title:   "Figure 1(a)",
			Headers: []string{"size", "Elan4 us", "IB us"},
			Rows:    [][]string{{"0 B", "2.81", "6.25"}},
		}},
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(raw, []byte("2.81"), []byte("9.99"), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption did not take")
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ReadArtifact on corrupted file: err = %v, want checksum mismatch", err)
	}
}

func TestArtifactWriteRejectsAnonymous(t *testing.T) {
	if _, err := (&Artifact{}).Write(t.TempDir()); err == nil {
		t.Fatal("artifact without an experiment id must not write")
	}
}

// TestFailuresCollection: Failures extracts failed results in submission
// order with stable causes and their labels.
func TestFailuresCollection(t *testing.T) {
	p := &Pool{Workers: 4}
	jobs := []Job{
		{ID: "a", Run: func(context.Context) (interface{}, error) { return 1, nil }},
		{ID: "b", Labels: map[string]string{"net": "ib"},
			Run: func(context.Context) (interface{}, error) { return nil, fmt.Errorf("qp error") }},
		{ID: "c", Run: func(context.Context) (interface{}, error) { return 3, nil }},
		{ID: "d", Run: func(context.Context) (interface{}, error) { return nil, fmt.Errorf("boom") }},
	}
	fails := Failures(p.Run(context.Background(), jobs))
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want 2", len(fails))
	}
	if fails[0].Job != "b" || fails[1].Job != "d" {
		t.Fatalf("failure order %q, %q: want submission order b, d", fails[0].Job, fails[1].Job)
	}
	if fails[0].Cause != "qp error" || fails[0].Labels["net"] != "ib" {
		t.Fatalf("failure = %+v", fails[0])
	}
}

// TestArtifactChecksum: Write stamps a checksum over the result payload;
// ReadArtifact verifies it; tampering with a table cell is detected, while
// editing Meta (run circumstances, not results) is not a checksum matter.
func TestArtifactChecksum(t *testing.T) {
	dir := t.TempDir()
	a := &Artifact{
		Experiment: "fig9",
		Title:      "t",
		Tables:     []Table{{Title: "T", Headers: []string{"x"}, Rows: [][]string{{"1.23"}}}},
		Failures:   []Failure{{Job: "p", Cause: "timeout"}},
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == "" || len(a.Checksum) != 64 {
		t.Fatalf("checksum = %q, want 64 hex chars", a.Checksum)
	}
	if _, err := ReadArtifact(path); err != nil {
		t.Fatalf("clean artifact failed verification: %v", err)
	}

	// Tamper with a result value: must be detected.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), "1.23", "9.99", 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("tampered artifact read back: err = %v", err)
	}
}

// TestArtifactLegacyNoChecksum: artifacts written before checksums existed
// (empty field) still load.
func TestArtifactLegacyNoChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	legacy := `{"experiment":"old","title":"t","meta":{"quick":false,"jobs":1,"seed":1,"wall_ms":1},"tables":[]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Experiment != "old" || a.Checksum != "" {
		t.Fatalf("artifact = %+v", a)
	}
}
