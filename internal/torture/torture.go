package torture

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"omicon/internal/campaign"
	"omicon/internal/journal"
	"omicon/internal/metrics"
	"omicon/internal/sim"
	"omicon/internal/telemetry"
	"omicon/internal/trace"
)

// Options configures a torture run.
type Options struct {
	// Trials is the number of randomized trials spread round-robin over
	// the protocol x adversary matrix.
	Trials int
	// Seed derives every trial's seed; the same (Seed, Options) is fully
	// deterministic.
	Seed uint64
	// Protocols and Adversaries select matrix rows/columns by name; empty
	// means the defaults (all non-broken protocols, the six-strategy
	// portfolio).
	Protocols   []string
	Adversaries []string
	// CorpusDir receives a corpus entry per failing trial; empty disables
	// persistence.
	CorpusDir string
	// Shrink delta-debugs each failing schedule before persisting it.
	Shrink bool
	// ShrinkMaxRuns caps the replays the shrinker spends per failure
	// (default 200).
	ShrinkMaxRuns int
	// DeterminismEvery re-runs every k-th trial with a fresh adversary of
	// the same seed and requires a byte-identical transcript; 0 disables,
	// 1 checks every trial.
	DeterminismEvery int
	// Envelope adds cost caps on top of the per-trial round envelope.
	Envelope metrics.Envelope
	// Inject deliberately sabotages the run to prove the oracle catches
	// violations: "overbudget" corrupts t+1 processes in round 1,
	// "honest-drop" drops a message between two honest processes.
	Inject string
	// Trace receives the structured event stream of every primary trial
	// (one exec-start..exec-end segment per trial). Determinism re-runs
	// and shrink replays are never traced, so the stream stays one
	// segment per campaign trial. A corpus entry's own trace comes from
	// re-executing it (Replay), which emits exactly the primary trial's
	// segment.
	Trace *trace.Tracer
	// Log, when set, receives one line per violation and a final summary.
	Log io.Writer
	// Workers sizes the worker pool running primary trials (0 selects
	// GOMAXPROCS, 1 is fully serial). The campaign is parallelized one
	// round-robin lap at a time — each (protocol, adversary) cell appears
	// exactly once per lap, so the schedule bases mutating adversaries
	// chain across laps are identical to a serial run's — and all
	// bookkeeping (stats, corpus writes, shrinking, determinism re-runs,
	// campaign trace emission) happens on the calling goroutine in trial
	// order. Reports, corpus files and traces are byte-identical at any
	// worker count.
	Workers int
	// Shards is the simulator shard count for every execution the
	// campaign performs — primary trials, determinism re-runs and shrink
	// replays alike (sim.Config.Shards: 0 steps every process on the
	// trial's goroutine, sim.ShardsAuto or k >= 2 adds shard workers).
	// Every count is observably identical, so reports, corpus files and
	// traces are byte-identical at any shard count too; TestShardedCampaignByteIdentical
	// pins exactly that. Orthogonal to Workers: Workers spreads whole
	// trials over a pool, Shards parallelizes inside a single execution
	// (docs/PERFORMANCE.md discusses when to prefer which).
	Shards int
	// Ctx, when set, cancels the campaign between trials: already
	// committed trials keep their artifacts (corpus entries, journal
	// records), the journal is flushed, and Run returns the partial
	// report together with an error wrapping context.Canceled. Nil means
	// run to completion.
	Ctx context.Context
	// Journal, when set, records every completed trial durably (keyed by
	// a content hash of the trial's inputs) and replays already-journaled
	// trials on a later run instead of re-executing them. A resumed
	// campaign commits replayed and live trials through the same path, so
	// its report, log and corpus are byte-identical to an uninterrupted
	// run's (docs/RESILIENCE.md documents the format and semantics). The
	// journal must belong to the same campaign configuration; Run errors
	// out otherwise.
	Journal *journal.Journal
	// Remote, when set, executes each primary trial through it instead of
	// calling ExecuteJob in-process — the hook the distributed dispatcher
	// (internal/distrib) installs. Determinism re-runs, shrink replays,
	// and all commit bookkeeping stay on the calling process, and commits
	// remain strictly serial in trial order, so reports, logs, corpus
	// files and journals stay byte-identical to an in-process run at any
	// worker count (docs/DISTRIBUTED.md).
	Remote func(ctx context.Context, job Job) (*Outcome, error)
	// Telemetry, when set, registers the campaign metric catalog
	// (docs/OBSERVABILITY.md, "Campaign telemetry") and counts trial
	// progress, violations and per-trial wall time as the campaign runs.
	// Strictly observational: every artifact — report, log, corpus,
	// journal — is byte-identical with or without it
	// (TestTelemetryCampaignByteIdentical pins this).
	Telemetry *telemetry.Registry
}

// runMetrics holds the campaign's telemetry handles; all fields are nil
// (no-op) when Options.Telemetry is nil. The kernel moves the progress
// series, Run's fold the outcome counters.
type runMetrics struct {
	progress    campaign.Progress
	violations  *telemetry.Counter
	failed      *telemetry.Counter
	mcMisses    *telemetry.Counter
	quarantined *telemetry.Counter
	detChecks   *telemetry.Counter
	shrinkRuns  *telemetry.Counter
}

func newRunMetrics(reg *telemetry.Registry) runMetrics {
	return runMetrics{
		progress: campaign.Progress{
			Target:  reg.Gauge("omicon_torture_trials_target", "total trials this campaign will run"),
			Done:    reg.Counter("omicon_torture_trials_total", "trials committed (live and replayed)"),
			Resumed: reg.Counter("omicon_torture_resumed_total", "trials replayed from the journal instead of executed"),
			Seconds: reg.Histogram("omicon_torture_trial_seconds", "per-trial wall time (live executions only)", nil),
		},
		violations:  reg.Counter("omicon_torture_violations_total", "oracle violations across all trials"),
		failed:      reg.Counter("omicon_torture_failed_trials_total", "trials with at least one violation"),
		mcMisses:    reg.Counter("omicon_torture_mc_misses_total", "monte-carlo misses (expected, bounded by the envelope)"),
		quarantined: reg.Counter("omicon_torture_quarantined_total", "trials quarantined by the distributed dispatcher"),
		detChecks:   reg.Counter("omicon_torture_determinism_checks_total", "determinism re-runs performed"),
		shrinkRuns:  reg.Counter("omicon_torture_shrink_runs_total", "shrinker replays spent across all failures"),
	}
}

// CellStats aggregates one (protocol, adversary) matrix cell.
type CellStats struct {
	Trials     int `json:"trials"`
	Violations int `json:"violations"`
	MCMisses   int `json:"mcMisses,omitempty"`
}

// Report is the outcome of a torture run.
type Report struct {
	Trials            int
	Violations        int
	MCMisses          int
	DeterminismChecks int
	// Resumed counts the trials replayed from the journal instead of
	// executed. Deliberately absent from Summary: a resumed campaign's
	// summary must be byte-identical to an uninterrupted run's.
	Resumed int
	// Quarantined lists the trial indices the distributed dispatcher
	// isolated after repeated worker deaths and executed in-process
	// (poison-trial quarantine, docs/DISTRIBUTED.md). Absent from Summary
	// for the same reason as Resumed: a distributed campaign's summary
	// must be byte-identical to an in-process run's.
	Quarantined []int
	Cells       map[string]*CellStats
	// Failures holds one record per failing trial, in trial order.
	Failures []*Entry
	// CorpusPaths lists the files written under Options.CorpusDir.
	CorpusPaths []string
}

// Summary renders the report as a short human-readable block.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "torture: %d trials, %d violations, %d monte-carlo misses, %d determinism checks\n",
		r.Trials, r.Violations, r.MCMisses, r.DeterminismChecks)
	keys := make([]string, 0, len(r.Cells))
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := r.Cells[k]
		fmt.Fprintf(&b, "  %-32s trials=%-4d violations=%-3d", k, c.Trials, c.Violations)
		if c.MCMisses > 0 {
			fmt.Fprintf(&b, " mcMisses=%d", c.MCMisses)
		}
		b.WriteString("\n")
	}
	for _, p := range r.CorpusPaths {
		fmt.Fprintf(&b, "  corpus: %s\n", p)
	}
	return b.String()
}

// mix is SplitMix64, deriving independent trial seeds from the run seed.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TrialInputs cycles input patterns. Mixed patterns put more than t
// processes in each camp (guaranteed by CapT), so corruption can never
// empty a camp and turn validity vacuously true or false by accident.
// The tournament reuses the same patterns so its cells and torture trials
// probe identical input space.
func TrialInputs(n, variant int) []int {
	in := make([]int, n)
	switch variant % 4 {
	case 0: // balanced mixed
		for i := range in {
			in[i] = i % 2
		}
	case 1: // unanimous one
		for i := range in {
			in[i] = 1
		}
	case 2: // unanimous zero
	default: // near-unanimous: one hidden minority holder (the
		// flood-split shape — a value the adversary can conceal)
		for i := range in {
			in[i] = 1
		}
		in[0] = 0
	}
	return in
}

// CapT bounds the corruption budget so every mixed-input camp keeps a
// non-faulty member: t <= n/2 - 1 with balanced camps of size >= n/2.
func CapT(spec ProtoSpec, n int) int {
	t := spec.MaxT(n)
	if cap := n/2 - 1; t > cap {
		t = cap
	}
	if t < 0 {
		t = 0
	}
	return t
}

type cell struct {
	proto ProtoSpec
	adv   AdvSpec
}

func resolveMatrix(o Options) ([]cell, error) {
	var protos []ProtoSpec
	if len(o.Protocols) == 0 {
		protos = DefaultProtocols()
	} else {
		for _, name := range o.Protocols {
			s, err := FindProtocol(name)
			if err != nil {
				return nil, err
			}
			protos = append(protos, s)
		}
	}
	var advs []AdvSpec
	if len(o.Adversaries) == 0 {
		advs = DefaultAdversaries()
	} else {
		for _, name := range o.Adversaries {
			s, err := FindAdversary(name)
			if err != nil {
				return nil, err
			}
			advs = append(advs, s)
		}
	}
	cells := make([]cell, 0, len(protos)*len(advs))
	for _, p := range protos {
		for _, a := range advs {
			cells = append(cells, cell{proto: p, adv: a})
		}
	}
	return cells, nil
}

// injected wraps an adversary with a deliberate violation, the harness's
// own self-test that the oracle pipeline actually fires.
type injected struct {
	inner sim.Adversary
	mode  string
	t     int
	done  bool
}

func (a *injected) Name() string { return a.inner.Name() + "+" + a.mode }

func (a *injected) Step(v *sim.View) sim.Action {
	act := a.inner.Step(v)
	if a.done {
		return act
	}
	switch a.mode {
	case "overbudget":
		// Corrupt t+1 fresh processes immediately: must trip ErrBudget.
		act = sim.Action{}
		for p := 0; p < v.N && len(act.Corrupt) < a.t+1; p++ {
			if !v.Corrupted[p] {
				act.Corrupt = append(act.Corrupt, p)
			}
		}
		a.done = true
	case "honest-drop":
		// Drop a message between two honest processes: ErrIllegalOmission.
		for i, m := range v.Outbox {
			if !v.Corrupted[m.From] && !v.Corrupted[m.To] {
				act.Drop = append(act.Drop, i)
				a.done = true
				break
			}
		}
	}
	return act
}

func wrapInject(adv sim.Adversary, mode string, t int) (sim.Adversary, error) {
	switch mode {
	case "":
		return adv, nil
	case "overbudget", "honest-drop":
		return &injected{inner: adv, mode: mode, t: t}, nil
	default:
		return nil, fmt.Errorf("torture: unknown inject mode %q", mode)
	}
}

// trialRun is one complete simulated execution plus recorded transcript.
type trialRun struct {
	res *sim.Result
	err error
	tr  *sim.Transcript
}

// runOnce records one execution of proto against adv; the transcript's
// header names the protocol protoName.
func runOnce(protoName string, proto sim.Protocol, bound int, adv sim.Adversary, n, t int, inputs []int, seed uint64, tracer *trace.Tracer, shards int) trialRun {
	rec, tr := sim.NewRecorder(adv)
	res, err := sim.Run(sim.Config{
		N: n, T: t, Inputs: inputs, Seed: seed, Adversary: rec,
		MaxRounds: bound + 64, Trace: tracer, Shards: shards,
	}, proto)
	tr.Protocol = protoName
	tr.Seed = seed
	tr.Inputs = append([]int(nil), inputs...)
	return trialRun{res: res, err: err, tr: tr}
}

// trialSpec carries everything trial i needs, fixed before its lap is
// dispatched to the pool: the trial index alone (plus the schedule bases
// captured at the previous lap boundary) determines the execution.
type trialSpec struct {
	i, lap int
	c      cell
	n, t   int
	seed   uint64
	inputs []int
	key    string
	base   sim.Schedule
}

// Run executes the torture campaign on the campaign kernel
// (internal/campaign), which owns the resume-and-commit policy: journaled
// trials are replayed instead of executed, live and replayed records fold
// through the one path below in trial order, and a trial's journal record
// is appended only after its corpus artifacts are on disk.
func Run(o Options) (*Report, error) {
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if o.ShrinkMaxRuns <= 0 {
		o.ShrinkMaxRuns = 200
	}
	cells, err := resolveMatrix(o)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", args...)
		}
	}
	met := newRunMetrics(o.Telemetry)

	report := &Report{Cells: make(map[string]*CellStats)}
	// lastSchedule feeds each cell's most recent recorded schedule to
	// mutating adversaries (sched-fuzz) as their base. Bases are snapshotted
	// into the trial specs at lap boundaries: every cell appears exactly
	// once per lap, so a trial's base always comes from a previous lap —
	// the identical dataflow a serial loop has — and pool workers never
	// touch the map itself.
	lastSchedule := make(map[string]sim.Schedule)
	// specs is the current lap; the callbacks below index into it.
	var specs []trialSpec

	// produce runs one primary trial; it only reads its spec. Trials
	// execute through ExecuteJob — in-process by default, through
	// Options.Remote when a distributed dispatcher is installed; the Job is
	// plain data, so both paths compute the identical Outcome.
	produce := func(ctx context.Context, j int) (*Outcome, error) {
		sp := &specs[j]
		job := Job{
			Trial: sp.i, Protocol: sp.c.proto.Name, Adversary: sp.c.adv.Name,
			N: sp.n, T: sp.t, Seed: sp.seed, Inputs: sp.inputs, Base: sp.base,
			Inject: o.Inject, Envelope: o.Envelope, Shards: o.Shards,
			Capture: o.Trace.Enabled(),
		}
		if o.Remote != nil {
			return o.Remote(ctx, job)
		}
		return ExecuteJob(job)
	}

	// record turns one live outcome into the trial's durable record — the
	// only work a replayed trial skips. Determinism re-runs and shrink
	// replays run untraced and stay on this process: they would otherwise
	// emit duplicate segments for executions that are not campaign trials.
	record := func(j int, oc *Outcome) (*trialRecord, error) {
		sp := &specs[j]
		verdict := Verdict{Violations: oc.Violations, MonteCarloMisses: oc.MCMisses}
		if oc.Quarantined {
			report.Quarantined = append(report.Quarantined, sp.i)
			met.quarantined.Inc()
		}
		for _, e := range oc.Capture {
			o.Trace.Emit(e)
		}

		// Determinism re-runs and shrink replays need the protocol, and a
		// remote outcome arrives without one; Build is deterministic, so the
		// rebuild yields exactly the protocol the executing worker ran. (A
		// trial that only fails its determinism check was det-checked, so
		// the condition need not wait for that verdict.)
		detChecked := o.DeterminismEvery > 0 && sp.i%o.DeterminismEvery == 0
		var proto sim.Protocol
		if detChecked || (o.Shrink && verdict.Failed()) {
			var err error
			if proto, _, err = sp.c.proto.Build(sp.n, sp.t); err != nil {
				return nil, fmt.Errorf("torture: build %s n=%d t=%d: %w", sp.c.proto.Name, sp.n, sp.t, err)
			}
		}

		// Determinism: a fresh adversary with the same seed must yield a
		// byte-identical transcript. Re-runs stay serial by design.
		if detChecked {
			adv2, err := wrapInject(sp.c.adv.Make(sp.base, sp.n, sp.t, sp.seed), o.Inject, sp.t)
			if err != nil {
				return nil, err
			}
			run2 := runOnce(sp.c.proto.Name, proto, oc.Bound, adv2, sp.n, sp.t, sp.inputs, sp.seed, nil, o.Shards)
			b1, b2 := transcriptBytes(oc.Transcript), transcriptBytes(run2.tr)
			if !bytes.Equal(b1, b2) {
				verdict.add(KindDeterminism,
					"same seed %d produced different transcripts (%d vs %d bytes)", sp.seed, len(b1), len(b2))
			}
		}

		rec := &trialRecord{
			V: trialRecordVersion, Trial: sp.i,
			Protocol: sp.c.proto.Name, Adversary: oc.AdvName,
			N: sp.n, T: sp.t, Seed: sp.seed,
			MCMisses: verdict.MonteCarloMisses, DetChecked: detChecked,
			Schedule: oc.Transcript.Schedule(),
		}
		if !verdict.Failed() {
			return rec, nil
		}
		rec.Entry = &Entry{
			Version: EntryVersion, Protocol: sp.c.proto.Name, Adversary: oc.AdvName,
			N: sp.n, T: sp.t, Seed: sp.seed, Inputs: sp.inputs, RoundBound: oc.Bound,
			MonteCarlo: sp.c.proto.MonteCarlo(),
			Violations: verdict.Violations,
			Schedule:   rec.Schedule,
			Transcript: oc.Transcript,
		}
		if o.Shrink {
			min, runs := shrinkEntry(sp.c.proto, proto, oc.Bound, rec.Entry, verdict.Violations[0].Kind, o.ShrinkMaxRuns, o.Shards)
			rec.Entry.MinSchedule = &min
			rec.Entry.ShrinkRuns = runs
		}
		return rec, nil
	}

	// fold commits one trial's record — always called in trial order, from
	// this goroutine, for live and replayed trials alike: identical stats,
	// identical log lines, identical corpus files (written from the record,
	// so a moved or damaged corpus directory heals on resume).
	fold := func(j int, rec *trialRecord, replayed bool) error {
		sp := &specs[j]
		stats := report.Cells[sp.key]
		if stats == nil {
			stats = &CellStats{}
			report.Cells[sp.key] = stats
		}
		if rec.DetChecked {
			report.DeterminismChecks++
			met.detChecks.Inc()
		}
		stats.Trials++
		report.Trials++
		stats.MCMisses += rec.MCMisses
		report.MCMisses += rec.MCMisses
		met.mcMisses.Add(int64(rec.MCMisses))
		lastSchedule[sp.key] = rec.Schedule
		if replayed {
			report.Resumed++
		}

		entry := rec.Entry
		if entry == nil {
			return nil
		}
		stats.Violations += len(entry.Violations)
		report.Violations += len(entry.Violations)
		met.failed.Inc()
		met.violations.Add(int64(len(entry.Violations)))
		met.shrinkRuns.Add(int64(entry.ShrinkRuns))
		for _, v := range entry.Violations {
			logf("FAIL %s n=%d t=%d seed=%d: %s", sp.key, sp.n, sp.t, sp.seed, v)
		}
		if o.Shrink && entry.MinSchedule != nil {
			logf("shrunk %s seed=%d: %d -> %d actions in %d replays",
				sp.key, sp.seed, entry.Schedule.NumActions(), entry.MinSchedule.NumActions(), entry.ShrinkRuns)
		}
		report.Failures = append(report.Failures, entry)
		if o.CorpusDir != "" {
			path, err := entry.Write(o.CorpusDir)
			if err != nil {
				return fmt.Errorf("torture: persisting corpus entry: %w", err)
			}
			report.CorpusPaths = append(report.CorpusPaths, path)
			logf("corpus: %s", path)
		}
		return nil
	}

	camp := &campaign.Campaign[*Outcome, *trialRecord]{
		Name: "torture", Ctx: o.Ctx, Workers: o.Workers,
		Journal: o.Journal, Version: trialRecordVersion, Progress: met.progress,
		Key:     func(j int) string { return trialKey(o, &specs[j]) },
		Produce: produce, Record: record, Fold: fold,
	}
	if err := camp.Guard(campaignConfigKey, campaignConfig{
		V: trialRecordVersion, Seed: o.Seed,
		Protocols: o.Protocols, Adversaries: o.Adversaries,
		Shrink: o.Shrink, ShrinkMaxRuns: o.ShrinkMaxRuns,
		DeterminismEvery: o.DeterminismEvery, Envelope: o.Envelope,
		Inject: o.Inject, Shards: o.Shards,
	}); err != nil {
		return nil, err
	}
	camp.Expect(o.Trials)

	// The campaign proceeds one round-robin lap at a time; trials within a
	// lap are independent (distinct cells) and run on the pool.
	for start := 0; start < o.Trials; start += len(cells) {
		count := len(cells)
		if start+count > o.Trials {
			count = o.Trials - start
		}
		specs = make([]trialSpec, count)
		for j := range specs {
			i := start + j
			c := cells[i%len(cells)]
			lap := i / len(cells)
			n := c.proto.Sizes[lap%len(c.proto.Sizes)]
			key := c.proto.Name + "/" + c.adv.Name
			specs[j] = trialSpec{
				i: i, lap: lap, c: c, n: n, t: CapT(c.proto, n),
				seed:   mix(o.Seed, i),
				inputs: TrialInputs(n, lap),
				key:    key,
				base:   lastSchedule[key],
			}
		}
		if err := camp.Run(count); err != nil {
			if campaign.Interrupted(err) {
				// Graceful shutdown: every committed trial kept its
				// artifacts and journal record; the caller gets the
				// partial report and can resume later.
				return report, err
			}
			return nil, err
		}
	}
	if err := camp.Finish(); err != nil {
		return nil, err
	}
	logf("%s", strings.TrimRight(report.Summary(), "\n"))
	return report, nil
}

func transcriptBytes(tr *sim.Transcript) []byte {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// replaySchedule re-executes schedule s at the coordinates e records (n,
// t, inputs and seed, under its protocol and adversary names) and judges
// the run with the protocol's declared properties. strict selects the
// verbatim replayer; the lenient one clamps s to legality
// (sim.ScheduleAdversary). The run emits into tracer (nil: untraced). It
// is the one re-execution of a schedule: Replay, the shrinker and the
// replay fuzz tests all run it.
func replaySchedule(spec ProtoSpec, proto sim.Protocol, bound int, e *Entry, s sim.Schedule, strict bool, shards int, tracer *trace.Tracer) (trialRun, Verdict) {
	adv := sim.NewScheduleAdversary(e.Adversary, s)
	if strict {
		adv = sim.NewStrictScheduleAdversary(e.Adversary, s)
	}
	run := runOnce(e.Protocol, proto, bound, adv, e.N, e.T, e.Inputs, e.Seed, tracer, shards)
	return run, Check(CheckInput{
		N: e.N, T: e.T, RoundBound: bound, Properties: spec.Properties,
		Result: run.res, RunErr: run.err, Transcript: run.tr,
	})
}

// shrinkEntry delta-debugs e's schedule down to a minimal one that still
// produces a violation of kind target. Candidates for a legality target
// replay strictly, so the illegal action reaches the engine; all others
// replay leniently, so every partial schedule stays legal.
func shrinkEntry(spec ProtoSpec, proto sim.Protocol, bound int, e *Entry, target Kind, maxRuns, shards int) (sim.Schedule, int) {
	strict := target == KindLegality
	return Shrink(e.Schedule, func(s sim.Schedule) bool {
		_, v := replaySchedule(spec, proto, bound, e, s, strict, shards, nil)
		return v.Has(target)
	}, maxRuns)
}

// ReplayResult is the outcome of replaying one recorded artifact.
type ReplayResult struct {
	Verdict Verdict
	// Reproduced reports whether the replay hit a violation of the kind of
	// the entry's first recorded one; false for an entry that records none.
	Reproduced bool
	// ByteIdentical reports whether the replayed transcript matches the
	// recorded one byte for byte.
	ByteIdentical bool
	// Transcript is the replay's recording, under the recorded protocol
	// and adversary names.
	Transcript *sim.Transcript
	// RunErr is the replayed execution's engine error, nil when it ran to
	// completion.
	RunErr error
}

// Replay re-executes a recorded artifact — a corpus entry or a recording
// (LoadArtifact) — from its schedule on the given simulator shard count
// (sim.Config.Shards), and compares the fresh transcript with the recorded
// one. The replay is strict: a legal recorded schedule replays identically
// either way, and strict mode also reproduces actions the engine accepts
// as no-ops, such as a re-corruption, and the illegal actions of a
// legality violation. The run is judged with the protocol's declared
// properties, never with a campaign Envelope: entries do not record it.
// The re-execution emits into tracer (nil: untraced): one exec segment,
// the same events the recorded run emitted.
func Replay(e *Entry, shards int, tracer *trace.Tracer) (*ReplayResult, error) {
	if e.Transcript == nil || !e.Transcript.HasReplayMeta() {
		return nil, fmt.Errorf("torture: replay needs replay metadata (protocol, seed, inputs); " +
			"this transcript predates the action-level format — re-record it with the current build")
	}
	spec, err := FindProtocol(e.Protocol)
	if err != nil {
		return nil, err
	}
	proto, bound, err := spec.Build(e.N, e.T)
	if err != nil {
		return nil, fmt.Errorf("torture: rebuilding %s for n=%d t=%d: %w", e.Protocol, e.N, e.T, err)
	}
	if e.RoundBound > 0 {
		bound = e.RoundBound
	}
	run, verdict := replaySchedule(spec, proto, bound, e, e.Schedule, true, shards, tracer)
	out := &ReplayResult{
		Verdict:       verdict,
		ByteIdentical: bytes.Equal(transcriptBytes(e.Transcript), transcriptBytes(run.tr)),
		Transcript:    run.tr,
		RunErr:        run.err,
	}
	if len(e.Violations) > 0 {
		out.Reproduced = verdict.Has(e.Violations[0].Kind)
	}
	return out, nil
}
