// Package tournament runs the cross-model adversary tournament: every
// protocol crossed with every registered adversary family over a sweep of
// (n, t) instances, with each protocol's declared property set
// (torture.PropertySet) checked uniformly in every cell by the same
// invariant oracle the torture harness uses.
//
// Where torture hunts counterexamples along one axis (many randomized
// trials of a fixed portfolio), the tournament maps the whole
// protocol x knowledge-model plane: which families beat which protocols,
// at what round cost, and whether the defeats are the expected ones
// (separation exhibits like FloodSet) or genuine violations. Executions
// go through torture.ExecuteJob — the same single execution path local
// and distributed torture campaigns use — so worker pools, sharded
// engines, journaled resume and telemetry all compose unchanged, and the
// report is byte-identical at any worker or shard count
// (TestTournamentByteIdentical pins this).
package tournament

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"

	"omicon/internal/campaign"
	"omicon/internal/journal"
	"omicon/internal/metrics"
	"omicon/internal/telemetry"
	"omicon/internal/torture"
	"omicon/internal/trace"
)

// Options configures a tournament.
type Options struct {
	// TrialsPerCell is the number of trials per (protocol, adversary, n, t)
	// cell; each trial gets an independent derived seed and cycles the
	// torture input patterns (torture.TrialInputs). Default 3.
	TrialsPerCell int
	// Seed derives every trial's seed; identical (Seed, Options) is fully
	// deterministic.
	Seed uint64
	// Protocols selects rows by name; empty means every registered
	// protocol, including known-broken separation exhibits (their losses
	// are reported as expected).
	Protocols []string
	// Adversaries selects columns by name; empty means every registered
	// adversary family — the whole zoo, not just the torture portfolio.
	Adversaries []string
	// Sizes overrides the per-protocol instance sizes; empty uses each
	// protocol's registered Sizes.
	Sizes []int
	// Envelope adds cost caps on top of the per-trial round envelope.
	Envelope metrics.Envelope
	// Workers sizes the trial worker pool (0 selects GOMAXPROCS, 1 is
	// fully serial). Commits are strictly serial in trial order, so every
	// artifact is byte-identical at any width.
	Workers int
	// Shards selects the simulator execution mode for every trial
	// (sim.Config.Shards). The engines are observably identical, so the
	// report does not depend on it either.
	Shards int
	// Ctx, when set, cancels the tournament between trials; Run returns
	// the partial report with an error wrapping context.Canceled.
	Ctx context.Context
	// Journal, when set, records every completed trial durably and
	// replays already-journaled trials on a later run. Keys exclude
	// Workers and Shards: neither changes observables, so a campaign may
	// resume at a different width or engine and still produce identical
	// bytes.
	Journal *journal.Journal
	// Remote, when set, executes each trial through it instead of calling
	// torture.ExecuteJob in-process (the distrib dispatcher hook).
	Remote func(ctx context.Context, job torture.Job) (*torture.Outcome, error)
	// Trace receives the structured event stream of every trial.
	Trace *trace.Tracer
	// Telemetry, when set, counts tournament progress. Strictly
	// observational: the report is byte-identical with or without it.
	Telemetry *telemetry.Registry
	// Log, when set, receives one line per unexpected loss and a final
	// summary line.
	Log io.Writer
}

// Cell aggregates the trials of one (protocol, adversary, n, t) square.
type Cell struct {
	Protocol  string `json:"protocol"`
	Adversary string `json:"adversary"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Trials    int    `json:"trials"`
	// Wins counts trials the protocol survived (no oracle violation);
	// Losses counts violated trials. Monte-Carlo misses of WHP properties
	// are neither: they are counted separately, as the envelope expects.
	Wins     int `json:"wins"`
	Losses   int `json:"losses"`
	MCMisses int `json:"mcMisses,omitempty"`
	// RoundsTotal sums executed rounds over the cell's trials (RoundsMax
	// is the worst trial) — the round-cost entry of the matrix.
	RoundsTotal int `json:"roundsTotal"`
	RoundsMax   int `json:"roundsMax"`
	// Expected marks cells whose protocol is a known-broken separation
	// exhibit: losses there are the point, not a regression.
	Expected bool `json:"expectedLosses,omitempty"`
	// Violations lists the distinct violation messages observed, in first
	// occurrence order.
	Violations []string `json:"violations,omitempty"`
}

func (c *Cell) key() string {
	return fmt.Sprintf("%s/%s n=%d t=%d", c.Protocol, c.Adversary, c.N, c.T)
}

// ProtoLine is one row header of the report: the protocol and the
// property set the oracle enforced in its cells.
type ProtoLine struct {
	Name string `json:"name"`
	// Properties is the enforced property set, rendered by
	// torture.PropertySet.String.
	Properties  string `json:"properties"`
	KnownBroken bool   `json:"knownBroken,omitempty"`
}

// Report is the tournament outcome: the full win/loss/round-cost matrix.
type Report struct {
	// Schema identifies the machine-readable format.
	Schema        string      `json:"schema"`
	Seed          uint64      `json:"seed"`
	TrialsPerCell int         `json:"trialsPerCell"`
	Protocols     []ProtoLine `json:"protocols"`
	Adversaries   []string    `json:"adversaries"`
	Cells         []*Cell     `json:"cells"`
	Trials        int         `json:"trials"`
	Losses        int         `json:"losses"`
	// UnexpectedLosses counts losing trials of protocols that promise
	// correctness — the tournament's failure signal.
	UnexpectedLosses int `json:"unexpectedLosses"`
	MCMisses         int `json:"mcMisses,omitempty"`
	// Resumed counts trials replayed from the journal. Excluded from the
	// serialized report: a resumed tournament's artifacts must be
	// byte-identical to an uninterrupted run's.
	Resumed int `json:"-"`
}

// Schema is the Report.Schema value this package writes.
const Schema = "omicon/tournament/v1"

// trial is one fully determined execution: cell index plus everything
// torture.ExecuteJob needs.
type trial struct {
	cell    int
	variant int // trial index within the cell; selects the input pattern
	n, t    int
	seed    uint64
	inputs  []int
}

// cellSeed derives a trial's seed from the run seed and the cell
// identity (not the flat trial position), so growing or reordering the
// matrix never changes the seeds of untouched cells and a journal keeps
// matching them.
func cellSeed(seed uint64, proto, adv string, n, t, variant int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", proto, adv, n, t, variant)
	z := seed ^ h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tSweep returns the corruption budgets a (protocol, n) pair is probed
// at: the weakest meaningful adversary (t = 1) and the strongest the
// proven bound admits (torture.CapT), deduplicated and ascending.
func tSweep(spec torture.ProtoSpec, n int) []int {
	top := torture.CapT(spec, n)
	if top <= 1 {
		return []int{top}
	}
	return []int{1, top}
}

// tournMetrics holds the telemetry handles (nil without Options.Telemetry):
// the kernel moves the progress series, Run's fold the outcome counters.
type tournMetrics struct {
	progress   campaign.Progress
	losses     *telemetry.Counter
	unexpected *telemetry.Counter
	mcMisses   *telemetry.Counter
}

func newTournMetrics(reg *telemetry.Registry) tournMetrics {
	return tournMetrics{
		progress: campaign.Progress{
			Target:  reg.Gauge("omicon_tournament_trials_target", "total trials this tournament will run"),
			Done:    reg.Counter("omicon_tournament_trials_total", "tournament trials committed (live and replayed)"),
			Resumed: reg.Counter("omicon_tournament_resumed_total", "trials replayed from the journal"),
		},
		losses:     reg.Counter("omicon_tournament_losses_total", "trials the adversary won (oracle violations)"),
		unexpected: reg.Counter("omicon_tournament_unexpected_losses_total", "losing trials of protocols that promise correctness"),
		mcMisses:   reg.Counter("omicon_tournament_mc_misses_total", "monte-carlo misses of WHP properties"),
	}
}

// resolve expands the option name lists into specs, defaulting to the
// full registries (every protocol including separation exhibits, every
// adversary family).
func resolve(o Options) ([]torture.ProtoSpec, []torture.AdvSpec, error) {
	var protos []torture.ProtoSpec
	if len(o.Protocols) == 0 {
		protos = torture.Protocols()
	} else {
		for _, name := range o.Protocols {
			s, err := torture.FindProtocol(name)
			if err != nil {
				return nil, nil, err
			}
			protos = append(protos, s)
		}
	}
	var advs []torture.AdvSpec
	if len(o.Adversaries) == 0 {
		advs = torture.Adversaries()
	} else {
		for _, name := range o.Adversaries {
			s, err := torture.FindAdversary(name)
			if err != nil {
				return nil, nil, err
			}
			advs = append(advs, s)
		}
	}
	return protos, advs, nil
}

// Run executes the tournament as one batch on the campaign kernel
// (internal/campaign), which keeps folds strictly serial in trial order at
// any worker count and owns journaled resume.
func Run(o Options) (*Report, error) {
	if o.TrialsPerCell <= 0 {
		o.TrialsPerCell = 3
	}
	protos, advs, err := resolve(o)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", args...)
		}
	}

	report := &Report{
		Schema: Schema, Seed: o.Seed, TrialsPerCell: o.TrialsPerCell,
	}
	for _, p := range protos {
		report.Protocols = append(report.Protocols, ProtoLine{
			Name: p.Name, Properties: p.Properties.String(), KnownBroken: p.KnownBroken,
		})
	}
	for _, a := range advs {
		report.Adversaries = append(report.Adversaries, a.Name)
	}

	// Enumerate the matrix: protocol-major, then adversary, size, budget,
	// trial — the fixed order every artifact inherits.
	var trials []trial
	for _, p := range protos {
		sizes := o.Sizes
		if len(sizes) == 0 {
			sizes = p.Sizes
		}
		for _, a := range advs {
			for _, n := range sizes {
				for _, t := range tSweep(p, n) {
					c := &Cell{Protocol: p.Name, Adversary: a.Name, N: n, T: t, Expected: p.KnownBroken}
					ci := len(report.Cells)
					report.Cells = append(report.Cells, c)
					for v := 0; v < o.TrialsPerCell; v++ {
						trials = append(trials, trial{
							cell: ci, variant: v, n: n, t: t,
							seed:   cellSeed(o.Seed, p.Name, a.Name, n, t, v),
							inputs: torture.TrialInputs(n, v),
						})
					}
				}
			}
		}
	}
	met := newTournMetrics(o.Telemetry)

	// produce executes one trial through torture.ExecuteJob, in-process or
	// through Options.Remote.
	produce := func(ctx context.Context, i int) (*torture.Outcome, error) {
		tr := &trials[i]
		c := report.Cells[tr.cell]
		job := torture.Job{
			Trial: i, Protocol: c.Protocol, Adversary: c.Adversary,
			N: tr.n, T: tr.t, Seed: tr.seed, Inputs: tr.inputs,
			Envelope: o.Envelope, Shards: o.Shards, Capture: o.Trace.Enabled(),
		}
		if o.Remote != nil {
			return o.Remote(ctx, job)
		}
		return torture.ExecuteJob(job)
	}

	// record reduces a live outcome to the cell-stat contributions fold
	// needs, replaying the trial's trace capture into the campaign stream.
	record := func(i int, oc *torture.Outcome) (*trialRecord, error) {
		tr := &trials[i]
		c := report.Cells[tr.cell]
		rec := &trialRecord{
			V: recordVersion, Protocol: c.Protocol, Adversary: c.Adversary,
			N: tr.n, T: tr.t, Variant: tr.variant, Seed: tr.seed,
			MCMisses: oc.MCMisses, Rounds: len(oc.Transcript.Rounds),
		}
		for _, v := range oc.Violations {
			rec.Violations = append(rec.Violations, v.String())
		}
		for _, e := range oc.Capture {
			o.Trace.Emit(e)
		}
		return rec, nil
	}

	// fold commits one record, live or replayed, into its cell.
	fold := func(i int, rec *trialRecord, replayed bool) error {
		tr := &trials[i]
		c := report.Cells[tr.cell]
		if replayed {
			report.Resumed++
		}
		c.Trials++
		report.Trials++
		c.RoundsTotal += rec.Rounds
		if rec.Rounds > c.RoundsMax {
			c.RoundsMax = rec.Rounds
		}
		c.MCMisses += rec.MCMisses
		report.MCMisses += rec.MCMisses
		met.mcMisses.Add(int64(rec.MCMisses))
		if len(rec.Violations) == 0 {
			c.Wins++
			return nil
		}
		c.Losses++
		report.Losses++
		met.losses.Inc()
		for _, v := range rec.Violations {
			if !slices.Contains(c.Violations, v) {
				c.Violations = append(c.Violations, v)
			}
		}
		if !c.Expected {
			report.UnexpectedLosses++
			met.unexpected.Inc()
			for _, v := range rec.Violations {
				logf("LOSS %s seed=%d: %s", c.key(), tr.seed, v)
			}
		}
		return nil
	}

	camp := &campaign.Campaign[*torture.Outcome, *trialRecord]{
		Name: "tournament", Ctx: o.Ctx, Workers: o.Workers,
		Journal: o.Journal, Version: recordVersion, Progress: met.progress,
		Key: func(i int) string {
			c := report.Cells[trials[i].cell]
			return trialKey(c.Protocol, c.Adversary, &trials[i])
		},
		Produce: produce, Record: record, Fold: fold,
	}
	if err := camp.Guard(tournamentConfigKey, tournamentConfig{
		V: recordVersion, Seed: o.Seed, TrialsPerCell: o.TrialsPerCell,
		Protocols: o.Protocols, Adversaries: o.Adversaries,
		Sizes: o.Sizes, Envelope: o.Envelope,
	}); err != nil {
		return nil, err
	}
	camp.Expect(len(trials))
	if err := camp.Run(len(trials)); err != nil {
		if campaign.Interrupted(err) {
			return report, err
		}
		return nil, err
	}
	if err := camp.Finish(); err != nil {
		return nil, err
	}
	logf("%s", strings.TrimRight(report.Summary(), "\n"))
	return report, nil
}
