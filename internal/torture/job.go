package torture

import (
	"fmt"

	"omicon/internal/metrics"
	"omicon/internal/sim"
	"omicon/internal/trace"
)

// Job describes one primary torture trial as plain serializable data:
// protocol and adversary by registry name, the trial-index-derived seed
// and inputs, and the schedule base snapshotted at the previous lap
// boundary. A Job is everything a worker process needs to execute the
// trial — ExecuteJob(job) on any process yields the same Outcome, which
// is what keeps distributed campaigns byte-identical to in-process runs
// (docs/DISTRIBUTED.md).
type Job struct {
	// Trial is the campaign-wide trial index (re-dispatch identity).
	Trial     int    `json:"trial"`
	Protocol  string `json:"protocol"`
	Adversary string `json:"adversary"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Seed      uint64 `json:"seed"`
	Inputs    []int  `json:"inputs"`
	// Base is the cell's most recent recorded schedule, fed to mutating
	// adversaries (sched-fuzz) exactly as the serial loop would.
	Base sim.Schedule `json:"base"`
	// Inject selects the oracle self-test sabotage mode (Options.Inject).
	Inject string `json:"inject,omitempty"`
	// Envelope adds the campaign's cost caps to the oracle check.
	Envelope metrics.Envelope `json:"envelope"`
	// Shards selects the simulator execution mode (sim.Config.Shards).
	Shards int `json:"shards,omitempty"`
	// Capture records the campaign trace buffer (set when the campaign is
	// traced).
	Capture bool `json:"capture,omitempty"`
}

// Outcome is one primary execution's complete result: the transcript,
// the oracle verdict, and the trace buffer the commit phase replays.
// All fields survive a JSON round trip byte-identically, so an Outcome
// computed by a remote worker commits exactly like a local one.
type Outcome struct {
	// AdvName is the executed adversary's self-reported name (the inject
	// wrapper decorates it).
	AdvName string `json:"advName"`
	// Bound is the protocol's round bound from ProtoSpec.Build.
	Bound      int             `json:"bound"`
	Transcript *sim.Transcript `json:"transcript"`
	Violations []Violation     `json:"violations,omitempty"`
	MCMisses   int             `json:"mcMisses,omitempty"`
	// Capture holds the campaign trace events (Job.Capture) in emission
	// order.
	Capture []trace.Event `json:"capture,omitempty"`
	// Quarantined is set by the dispatch layer, never by workers: the
	// trial crashed enough workers in a row to be isolated, and this
	// outcome came from the in-process quarantine execution. It rides on
	// the Outcome so commit can surface the trial in Report.Quarantined
	// without changing any byte of the report text.
	Quarantined bool `json:"-"`
}

// ExecuteJob runs one primary trial described by job and returns its
// outcome. It is the single execution path for local, remote, and
// quarantined trials: the in-process campaign calls it directly, worker
// processes call it through internal/distrib's executor registry.
func ExecuteJob(job Job) (*Outcome, error) {
	spec, err := FindProtocol(job.Protocol)
	if err != nil {
		return nil, err
	}
	advSpec, err := FindAdversary(job.Adversary)
	if err != nil {
		return nil, err
	}
	proto, bound, err := spec.Build(job.N, job.T)
	if err != nil {
		return nil, fmt.Errorf("torture: build %s n=%d t=%d: %w", spec.Name, job.N, job.T, err)
	}
	adv, err := wrapInject(advSpec.Make(job.Base, job.N, job.T, job.Seed), job.Inject, job.T)
	if err != nil {
		return nil, err
	}

	// A traced campaign's primary trial is traced into a per-trial capture
	// buffer, replayed into the campaign tracer at commit, in trial order.
	out := &Outcome{AdvName: adv.Name(), Bound: bound}
	var capture *trace.Capture
	var tracer *trace.Tracer
	if job.Capture {
		capture = &trace.Capture{}
		tracer = trace.New(capture)
	}

	run := runOnce(spec.Name, proto, bound, adv, job.N, job.T, job.Inputs, job.Seed, tracer, job.Shards)
	verdict := Check(CheckInput{
		N: job.N, T: job.T, RoundBound: bound, Envelope: job.Envelope,
		Properties: spec.Properties,
		Result:     run.res, RunErr: run.err, Transcript: run.tr,
	})
	out.Transcript = run.tr
	out.Violations = verdict.Violations
	out.MCMisses = verdict.MonteCarloMisses
	if capture != nil {
		out.Capture = capture.Events()
	}
	return out, nil
}
