package telemetry

import (
	"os"
	"time"
)

// StatuszSchema versions the /statusz JSON document.
const StatuszSchema = "omicon/statusz/v1"

// CampaignStatus summarizes campaign progress for /statusz. Kind names
// the campaign flavour ("torture", "sweep-thm1", "chaos", ...).
type CampaignStatus struct {
	Kind          string  `json:"kind"`
	TrialsTotal   int64   `json:"trialsTotal"`
	TrialsDone    int64   `json:"trialsDone"`
	Violations    int64   `json:"violations,omitempty"`
	FailedTrials  int64   `json:"failedTrials,omitempty"`
	Quarantined   int64   `json:"quarantined,omitempty"`
	Resumed       int64   `json:"resumed,omitempty"`
	RatePerSecond float64 `json:"ratePerSecond,omitempty"`
	EtaSeconds    float64 `json:"etaSeconds,omitempty"`
}

// WorkerStatus is one row of the per-worker table on a coordinator's
// /statusz; Metrics is the worker's latest piggybacked snapshot. Stale
// rows describe workers that died mid-campaign; their last snapshot is
// retained for post-mortems.
type WorkerStatus struct {
	ID                 uint64    `json:"id"`
	Name               string    `json:"name"`
	Alive              bool      `json:"alive"`
	Stale              bool      `json:"stale,omitempty"`
	HeartbeatAgeMillis int64     `json:"heartbeatAgeMillis"`
	Beats              int64     `json:"beats"`
	InFlight           string    `json:"inFlight,omitempty"`
	JobsDone           int64     `json:"jobsDone"`
	JoinedAt           time.Time `json:"joinedAt"`
	Metrics            *Snapshot `json:"metrics,omitempty"`
}

// Statusz is the /statusz document, the one rendering of a process's
// telemetry: identity plus optional campaign progress, worker table and
// local metrics snapshot.
type Statusz struct {
	Schema        string          `json:"schema"`
	Program       string          `json:"program"`
	PID           int             `json:"pid"`
	StartedAt     time.Time       `json:"startedAt"`
	UptimeSeconds float64         `json:"uptimeSeconds"`
	Campaign      *CampaignStatus `json:"campaign,omitempty"`
	Workers       []WorkerStatus  `json:"workers,omitempty"`
	Metrics       *Snapshot       `json:"metrics,omitempty"`
}

// BaseStatusz fills the identity fields shared by every CLI.
func BaseStatusz(program string, started time.Time) *Statusz {
	return &Statusz{
		Schema:        StatuszSchema,
		Program:       program,
		PID:           os.Getpid(),
		StartedAt:     started,
		UptimeSeconds: time.Since(started).Seconds(),
	}
}

// FillRate derives RatePerSecond and EtaSeconds from progress over
// elapsed time. Zero progress or zero elapsed leaves both unset.
func (c *CampaignStatus) FillRate(elapsed time.Duration) {
	if c == nil || c.TrialsDone <= 0 || elapsed <= 0 {
		return
	}
	c.RatePerSecond = float64(c.TrialsDone) / elapsed.Seconds()
	if remaining := c.TrialsTotal - c.TrialsDone; remaining > 0 && c.RatePerSecond > 0 {
		c.EtaSeconds = float64(remaining) / c.RatePerSecond
	}
}
