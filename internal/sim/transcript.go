package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// TranscriptVersion is the current transcript schema version. Version 1
// adds action-level history (exact drop endpoints per round) and optional
// replay metadata; version 0 is the legacy aggregate-only schema, which
// decodes as a Transcript with Version 0 and nil Drops.
const TranscriptVersion = 1

// Transcript records the observable history of an execution round by
// round: what was sent, what the adversary did, who terminated with what
// decision. Transcripts serve four purposes: debugging (cmd/omicon can
// dump them), determinism verification (two runs of the same seed must
// produce byte-identical transcripts), post-hoc analysis of adversary
// behaviour without re-running, and — at version >= 1 — exact schedule
// replay via ScheduleAdversary.
//
// A Transcript is produced by wrapping the configured adversary with a
// Recorder; it sees exactly the engine's per-round views and actions.
// The replay metadata (Protocol, Seed, Inputs) is not visible to the
// recorder; harnesses whose recordings must replay fill it after the run.
type Transcript struct {
	Version int `json:"version,omitempty"`
	N       int `json:"n"`
	T       int `json:"t"`
	// Protocol, Adversary, Seed and Inputs identify the execution well
	// enough to re-run it. Adversary is filled by the Recorder; the rest
	// by the harness that owns the configuration.
	Protocol  string        `json:"protocol,omitempty"`
	Adversary string        `json:"adversary,omitempty"`
	Seed      uint64        `json:"seed,omitempty"`
	Inputs    []int         `json:"inputs,omitempty"`
	Rounds    []RoundRecord `json:"rounds"`
}

// RoundRecord is one communication phase.
type RoundRecord struct {
	Round     int   `json:"round"`
	Messages  int   `json:"messages"`
	Bits      int64 `json:"bits"`
	Corrupted []int `json:"corrupted,omitempty"`
	Dropped   int   `json:"dropped"`
	// Drops lists the exact endpoints of every omitted message, in the
	// adversary's drop order (version >= 1 only).
	Drops      []Drop `json:"drops,omitempty"`
	Decided    int    `json:"decided"`
	Terminated int    `json:"terminated"`
}

// HasReplayMeta reports whether the transcript carries enough metadata to
// re-run the execution (protocol name and inputs; the zero seed is legal).
func (t *Transcript) HasReplayMeta() bool {
	return t.Version >= 1 && t.Protocol != "" && len(t.Inputs) == t.N
}

// Recorder wraps an adversary and appends a RoundRecord per phase.
type Recorder struct {
	inner      Adversary
	transcript *Transcript
}

// NewRecorder wraps inner (nil = NoFaults) and returns the recorder plus
// the transcript it fills.
func NewRecorder(inner Adversary) (*Recorder, *Transcript) {
	if inner == nil {
		inner = NoFaults{}
	}
	tr := &Transcript{Version: TranscriptVersion, Adversary: inner.Name()}
	return &Recorder{inner: inner, transcript: tr}, tr
}

// Name implements Adversary.
func (r *Recorder) Name() string { return r.inner.Name() }

// Step implements Adversary.
func (r *Recorder) Step(v *View) Action {
	act := r.inner.Step(v)
	if r.transcript.N == 0 {
		r.transcript.N, r.transcript.T = v.N, v.T
	}
	rec := RoundRecord{
		Round:    v.Round,
		Messages: len(v.Outbox),
		Dropped:  len(act.Drop),
	}
	for _, m := range v.Outbox {
		rec.Bits += m.Bits()
	}
	rec.Corrupted = append(rec.Corrupted, act.Corrupt...)
	for _, idx := range act.Drop {
		// Out-of-range indices are an adversary bug the engine rejects
		// right after this call; guard so the recorder never panics.
		if idx >= 0 && idx < len(v.Outbox) {
			rec.Drops = append(rec.Drops, Drop{From: v.Outbox[idx].From, To: v.Outbox[idx].To})
		}
	}
	for p := range v.Decisions {
		if v.Decisions[p] >= 0 {
			rec.Decided++
		}
		if v.Terminated[p] {
			rec.Terminated++
		}
	}
	r.transcript.Rounds = append(r.transcript.Rounds, rec)
	return act
}

// WriteJSON serializes the transcript.
func (t *Transcript) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Summary renders one line per transcript for quick inspection.
func (t *Transcript) Summary() string {
	msgs := 0
	var bits int64
	corr := 0
	for _, r := range t.Rounds {
		msgs += r.Messages
		bits += r.Bits
		corr += len(r.Corrupted)
	}
	return fmt.Sprintf("rounds=%d messages=%d bits=%d corruptions=%d", len(t.Rounds), msgs, bits, corr)
}
