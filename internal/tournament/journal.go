package tournament

import (
	"omicon/internal/journal"
	"omicon/internal/metrics"
)

// recordVersion versions the tournament journal payload schema.
const recordVersion = 1

// trialRecord is the journal payload for one completed trial: exactly
// the cell-stat contributions commit folds in, so replaying a record
// reproduces the report bytes without re-executing anything.
type trialRecord struct {
	V         int    `json:"v"`
	Protocol  string `json:"protocol"`
	Adversary string `json:"adversary"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Variant   int    `json:"variant"`
	Seed      uint64 `json:"seed"`
	Rounds    int    `json:"rounds"`
	MCMisses  int    `json:"mcMisses,omitempty"`
	// Violations are the rendered oracle violations; empty records a win.
	Violations []string `json:"violations,omitempty"`
}

// trialKey content-hashes everything that determines a trial's
// execution. Unlike torture's key it deliberately excludes Workers AND
// Shards: the sharded and goroutine-per-process engines are observably
// identical and commits are serial either way, so a journaled tournament
// may resume at any width or engine mode and still replay its records.
func trialKey(proto, adv string, tr *trial) string {
	return journal.Key("tournament/v1", proto, adv, tr.n, tr.t, tr.seed, tr.variant)
}

// tournamentConfig is the journal's leading configuration record
// (campaign.Guard): the option subset that changes trial outcomes. Workers
// and Shards are deliberately absent (see trialKey). Guard compares the
// rendered record byte-for-byte, so field order is format.
type tournamentConfig struct {
	V             int              `json:"v"`
	Seed          uint64           `json:"seed"`
	TrialsPerCell int              `json:"trialsPerCell"`
	Protocols     []string         `json:"protocols,omitempty"`
	Adversaries   []string         `json:"adversaries,omitempty"`
	Sizes         []int            `json:"sizes,omitempty"`
	Envelope      metrics.Envelope `json:"envelope"`
}

const tournamentConfigKey = "tournament-campaign/v1"
