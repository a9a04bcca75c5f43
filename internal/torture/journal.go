package torture

import (
	"omicon/internal/journal"
	"omicon/internal/metrics"
	"omicon/internal/sim"
)

// trialRecordVersion versions the torture journal payload schema.
const trialRecordVersion = 1

// trialRecord is the journal payload for one completed trial: everything
// the commit phase needs to fold the trial into the report without
// re-executing it — stats contributions, the recorded schedule (the base
// later schedule-mutating adversaries chain from), and, for failing
// trials, the full corpus entry. Replaying a record through the commit
// path reproduces the exact report, log lines and corpus files the live
// trial produced, which is what makes an interrupted-then-resumed campaign
// byte-identical to an uninterrupted one. Decoding ignores unknown fields,
// so journals whose failing records also carry a "trace" event dump (as
// older builds wrote them) still resume to the same artifacts.
type trialRecord struct {
	V          int          `json:"v"`
	Trial      int          `json:"trial"`
	Protocol   string       `json:"protocol"`
	Adversary  string       `json:"adversary"`
	N          int          `json:"n"`
	T          int          `json:"t"`
	Seed       uint64       `json:"seed"`
	MCMisses   int          `json:"mcMisses,omitempty"`
	DetChecked bool         `json:"detChecked,omitempty"`
	Schedule   sim.Schedule `json:"schedule"`
	// Entry is set for failing trials only; nil records a pass.
	Entry *Entry `json:"entry,omitempty"`
}

// trialKey content-hashes everything that determines a trial's execution:
// the cell, the instance size, the derived seed, the input pattern, the
// execution mode and any sabotage injection. A journal record is replayed
// exactly when the identical trial would otherwise be re-run.
func trialKey(o Options, sp *trialSpec) string {
	return journal.Key("torture/v1", sp.c.proto.Name, sp.c.adv.Name,
		sp.n, sp.t, sp.seed, sp.lap%4, o.Shards, o.Inject)
}

// campaignConfig is the journal's leading configuration record
// (campaign.Guard): the option subset that changes trial outcomes. A resume
// under different options would replay records into a campaign they do not
// belong to, so Run refuses it. Trials and Workers are deliberately absent
// — extending a journaled campaign to more trials resumes the common
// prefix, and the worker count never changes observables. Guard compares
// the rendered record byte-for-byte, so field order is format.
type campaignConfig struct {
	V                int              `json:"v"`
	Seed             uint64           `json:"seed"`
	Protocols        []string         `json:"protocols,omitempty"`
	Adversaries      []string         `json:"adversaries,omitempty"`
	Shrink           bool             `json:"shrink,omitempty"`
	ShrinkMaxRuns    int              `json:"shrinkMaxRuns,omitempty"`
	DeterminismEvery int              `json:"determinismEvery,omitempty"`
	Envelope         metrics.Envelope `json:"envelope"`
	Inject           string           `json:"inject,omitempty"`
	Shards           int              `json:"shards,omitempty"`
}

const campaignConfigKey = "torture-campaign/v1"
