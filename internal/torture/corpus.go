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

// LoadArtifact reads a recorded execution back as an Entry: either a
// corpus entry (a top-level "transcript" key) or a recording written by
// `omicon -record` (a top-level "rounds" key). A recording becomes an entry
// with no violations whose schedule is the transcript's and whose round
// bound is left to ProtoSpec.Build.
func LoadArtifact(path string) (*Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys struct {
		Transcript json.RawMessage `json:"transcript"`
		Rounds     json.RawMessage `json:"rounds"`
	}
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("torture: %s: %w", path, err)
	}
	var e Entry
	switch {
	case keys.Transcript != nil:
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("torture: corpus entry %s: %w", path, err)
		}
		if e.Version > EntryVersion {
			return nil, fmt.Errorf("torture: corpus entry %s has version %d, this build understands <= %d",
				path, e.Version, EntryVersion)
		}
	case keys.Rounds != nil:
		var tr sim.Transcript
		if err := json.Unmarshal(data, &tr); err != nil {
			return nil, fmt.Errorf("torture: recording %s: %w", path, err)
		}
		if tr.Version > sim.TranscriptVersion {
			return nil, fmt.Errorf("torture: recording %s has version %d, this build understands <= %d",
				path, tr.Version, sim.TranscriptVersion)
		}
		e = Entry{
			Protocol: tr.Protocol, Adversary: tr.Adversary,
			N: tr.N, T: tr.T, Seed: tr.Seed, Inputs: tr.Inputs,
			Schedule: tr.Schedule(), Transcript: &tr,
		}
	default:
		return nil, fmt.Errorf("torture: %s is neither a corpus entry nor a recording", path)
	}
	if e.Transcript == nil || e.N <= 0 {
		return nil, fmt.Errorf("torture: %s is incomplete", path)
	}
	return &e, nil
}
