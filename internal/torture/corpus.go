package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"omicon/internal/campaign"
	"omicon/internal/sim"
)

// EntryVersion is the corpus entry schema version.
const EntryVersion = 1

// Entry is one persisted counterexample: everything needed to reproduce a
// violation byte-for-byte — the trial coordinates, the full recorded
// schedule, the shrunk minimal schedule if the shrinker ran, and the
// original transcript replays are diffed against.
type Entry struct {
	Version    int         `json:"version"`
	Protocol   string      `json:"protocol"`
	Adversary  string      `json:"adversary"`
	N          int         `json:"n"`
	T          int         `json:"t"`
	Seed       uint64      `json:"seed"`
	Inputs     []int       `json:"inputs"`
	RoundBound int         `json:"roundBound"`
	MonteCarlo bool        `json:"monteCarlo,omitempty"`
	Violations []Violation `json:"violations"`
	// Schedule is the full adversarial schedule extracted from the
	// failing run's transcript.
	Schedule sim.Schedule `json:"schedule"`
	// MinSchedule is the delta-debugged minimal schedule still producing
	// a violation of the same kind; nil when shrinking was disabled.
	MinSchedule *sim.Schedule `json:"minSchedule,omitempty"`
	// ShrinkRuns counts the replays the shrinker spent.
	ShrinkRuns int `json:"shrinkRuns,omitempty"`
	// Transcript is the failing run's full recorded history.
	Transcript *sim.Transcript `json:"transcript"`
}

// FileName derives a stable descriptive name for the entry.
func (e *Entry) FileName() string {
	kind := "unknown"
	if len(e.Violations) > 0 {
		kind = string(e.Violations[0].Kind)
	}
	return fmt.Sprintf("torture-%s-%s-n%d-t%d-seed%d-%s.json", e.Protocol, e.Adversary, e.N, e.T, e.Seed, kind)
}

// Write persists the entry under dir (created if needed) and returns the
// file path.
func (e *Entry) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return "", err
	}
	path := filepath.Join(dir, e.FileName())
	if err := campaign.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// LoadEntry reads a corpus entry back.
func LoadEntry(path string) (*Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("torture: corpus entry %s: %w", path, err)
	}
	if e.Version > EntryVersion {
		return nil, fmt.Errorf("torture: corpus entry %s has version %d, this build understands <= %d",
			path, e.Version, EntryVersion)
	}
	if e.Transcript == nil || e.N <= 0 {
		return nil, fmt.Errorf("torture: corpus entry %s is incomplete", path)
	}
	return &e, nil
}
