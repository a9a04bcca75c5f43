// Package experiments implements the reproducible experiment runners
// behind Table 1 of the paper (experiment ids E1-E4 of DESIGN.md). The
// report generator (cmd/paper) and the benchmark harness are thin
// wrappers over these functions, so the experiment logic itself is
// unit-tested; E5/E6 live in internal/lowerbound and internal/coinflip.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"omicon/internal/adversary"
	"omicon/internal/campaign"
	"omicon/internal/core"
	"omicon/internal/journal"
	"omicon/internal/metrics"
	"omicon/internal/paramomissions"
	"omicon/internal/partrial"
	"omicon/internal/sim"
	"omicon/internal/stats"
	"omicon/internal/telemetry"
)

// Exec bundles the cross-cutting execution knobs every sweep shares and
// hands to the campaign kernel (internal/campaign): trial-level
// parallelism, the simulator execution mode, cancellation and the durable
// trial journal. The zero value runs serially-auto (workers = GOMAXPROCS),
// on the default one shard per trial, uncancellable and unjournaled.
type Exec struct {
	// Workers sizes the partrial pool (<= 0 selects GOMAXPROCS). Results
	// are byte-identical at any width.
	Workers int
	// Shards selects the simulator execution mode per trial
	// (sim.Config.Shards). Results are byte-identical in both modes.
	Shards int
	// Ctx, when set, cancels the sweep between trials; completed trials
	// keep their journal records, so a later run resumes them. The
	// returned error wraps context.Canceled.
	Ctx context.Context
	// Journal, when set, records every completed trial keyed by a content
	// hash of its inputs and replays journaled trials on a later run
	// instead of re-executing them — measurements are replayed bitwise,
	// so resumed sweep outputs are byte-identical to uninterrupted ones
	// (docs/RESILIENCE.md). A journaled record that no longer decodes is
	// an error naming it (internal/campaign), never a silent re-run.
	Journal *journal.Journal
	// RemoteThm1, when set, executes each Theorem-1 sweep sample through
	// it instead of calling RunThm1Job in-process — the hook the
	// distributed dispatcher (internal/distrib) installs. Commits stay
	// strictly serial in sample order, so sweep outputs remain
	// byte-identical at any worker count (docs/DISTRIBUTED.md).
	RemoteThm1 func(ctx context.Context, job Thm1Job) (SweepSample, error)
	// Telemetry, when set, registers the sweep metric catalog
	// (docs/OBSERVABILITY.md) and counts sample progress and per-sample
	// wall time. Strictly observational: sweep outputs are byte-identical
	// with or without it.
	Telemetry *telemetry.Registry
}

// spreadInputs distributes `ones` ones evenly over the id space, avoiding
// accidental alignment with the consecutive-block decompositions.
func spreadInputs(n, ones int) []int {
	in := make([]int, n)
	acc := 0
	for i := 0; i < n; i++ {
		acc += ones
		if acc >= n {
			acc -= n
			in[i] = 1
		}
	}
	return in
}

// Thm1Point is one measured cell of the Theorem 1 row (E1).
type Thm1Point struct {
	N, T           int
	Rounds         int64
	CommBits       int64
	RandBits       int64
	WorstAdversary string
}

// SweepSample is one measured execution inside a SweepCell: which
// adversary it ran against and the three complexity metrics.
type SweepSample struct {
	Adversary string `json:"adversary"`
	Rounds    int64  `json:"rounds"`
	CommBits  int64  `json:"commBits"`
	RandBits  int64  `json:"randBits"`
}

// Quantiles summarizes one metric's distribution over a cell's samples
// using the nearest-rank method (no interpolation; every reported value
// was actually observed).
type Quantiles struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	Max int64 `json:"max"`
}

// QuantilesOf computes nearest-rank P50/P90/Max over vals.
func QuantilesOf(vals []int64) Quantiles {
	if len(vals) == 0 {
		return Quantiles{}
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p int) int64 { // nearest rank: ceil(p% * len), 1-indexed
		return sorted[(len(sorted)*p+99)/100-1]
	}
	return Quantiles{P50: rank(50), P90: rank(90), Max: sorted[len(sorted)-1]}
}

// SweepCell is one (n, t) configuration of the Theorem 1 sweep: the full
// sample set (one per adversary x seed, in adversary-major order) plus
// per-metric quantiles across it.
type SweepCell struct {
	N        int           `json:"n"`
	T        int           `json:"t"`
	Samples  []SweepSample `json:"samples"`
	Rounds   Quantiles     `json:"rounds"`
	CommBits Quantiles     `json:"commBits"`
	RandBits Quantiles     `json:"randBits"`
}

// Thm1Job identifies one Theorem-1 sweep sample as plain serializable
// data: the configuration size, the adversary's index in the portfolio
// (adversary-major order, matching Thm1Detailed's sample layout), the
// seed index and base seed, and the simulator execution mode. The job
// alone determines the measurement — RunThm1Job(job) on any process
// returns the same SweepSample, which is what lets internal/distrib
// farm sweep samples out to worker processes byte-identically.
type Thm1Job struct {
	N        int    `json:"n"`
	AdvIdx   int    `json:"advIdx"`
	SeedIdx  int    `json:"seedIdx"`
	BaseSeed uint64 `json:"baseSeed"`
	Shards   int    `json:"shards,omitempty"`
}

// RunThm1Job executes one Theorem-1 sweep sample. It is the single
// execution path for local and remote samples: Thm1Detailed calls it
// in-process unless Exec.RemoteThm1 is installed, and worker processes
// call it through internal/distrib's executor registry. The adversary is
// constructed fresh from the job — several portfolio strategies carry
// evolving internal randomness, so a shared instance would make samples
// order-dependent.
func RunThm1Job(job Thm1Job) (SweepSample, error) {
	n := job.N
	t := (n - 1) / 31
	params, err := core.Prepare(n, t)
	if err != nil {
		return SweepSample{}, err
	}
	advs := adversary.Registry(n, t, job.BaseSeed)
	advs = append(advs, adversary.NewEclipse(params.Graph, t, n/10))
	if job.AdvIdx < 0 || job.AdvIdx >= len(advs) {
		return SweepSample{}, fmt.Errorf("experiments: adversary index %d out of range (portfolio has %d)", job.AdvIdx, len(advs))
	}
	adv := advs[job.AdvIdx]
	res, err := sim.Run(sim.Config{
		N: n, T: t,
		Inputs:    spreadInputs(n, n/2),
		Seed:      job.BaseSeed + uint64(job.SeedIdx)*101,
		Adversary: adv,
		MaxRounds: params.TotalRoundsBound() + 64,
		Shards:    job.Shards,
	}, core.Protocol(params))
	if err != nil {
		return SweepSample{}, fmt.Errorf("experiments: n=%d %s: %w", n, adv.Name(), err)
	}
	if cerr := res.CheckConsensus(); cerr != nil {
		return SweepSample{}, fmt.Errorf("experiments: n=%d %s: consensus violated: %w", n, adv.Name(), cerr)
	}
	return SweepSample{
		Adversary: adv.Name(),
		Rounds:    int64(res.RoundsNonFaulty()),
		CommBits:  res.Metrics.CommBits,
		RandBits:  res.Metrics.RandomBits,
	}, nil
}

// Thm1Detailed measures OptimalOmissionsConsensus at maximal fault load
// across sizes, keeping every (adversary, seed) sample instead of only
// the worst case. Rounds are counted over non-faulty processes.
// Consensus violations are returned as errors (they are protocol bugs).
//
// Trials run on a partrial pool of the given width (<=0 selects
// GOMAXPROCS). Every trial constructs its own adversary from the trial
// index — several portfolio strategies carry evolving internal randomness,
// so sharing instances across trials would make sample i depend on trials
// before it — which is also what makes the output independent of the
// worker count: cells and samples are byte-identical at any width.
//
// ex bundles the execution knobs (Exec zero value = old serial
// behaviour): ex.Shards selects the simulator execution mode inside each
// trial (sim.Config.Shards); results are byte-identical in both modes, so
// it — like Workers — changes only wall-clock time. partrial.Budget
// resolves the two knobs jointly for auto settings. With ex.Journal set,
// completed samples are journaled under a content hash of the trial
// inputs and replayed bitwise on a later run; with ex.Ctx set, the sweep
// stops between trials on cancellation, keeping journaled progress.
func Thm1Detailed(sizes []int, seeds int, baseSeed uint64, ex Exec) ([]SweepCell, error) {
	// One cell per size is one batch on the campaign kernel; the callbacks
	// read the current cell's coordinates from these variables.
	var (
		n, t, trialShards int
		names             []string
		samples           []SweepSample
	)
	camp := &campaign.Campaign[SweepSample, SweepSample]{
		Name: "experiments", Ctx: ex.Ctx, Journal: ex.Journal,
		Progress: campaign.Progress{
			Target: ex.Telemetry.Gauge("omicon_sweep_samples_target",
				"Total samples this sweep will commit across all cells."),
			Done: ex.Telemetry.Counter("omicon_sweep_samples_total",
				"Sweep samples committed, live or replayed."),
			Resumed: ex.Telemetry.Counter("omicon_sweep_resumed_total",
				"Sweep samples replayed bitwise from the trial journal."),
			Seconds: ex.Telemetry.Histogram("omicon_sweep_sample_seconds",
				"Wall time of live (non-replayed) sweep sample execution.", nil),
		},
		Key: func(i int) string {
			return journal.Key("sweep-thm1/v1", n, t, names[i/seeds], i%seeds, baseSeed, ex.Shards)
		},
		// Adversary-major order; RunThm1Job builds a fresh adversary
		// instance from the indices, locally or on a remote worker.
		Produce: func(ctx context.Context, i int) (SweepSample, error) {
			job := Thm1Job{N: n, AdvIdx: i / seeds, SeedIdx: i % seeds, BaseSeed: baseSeed, Shards: trialShards}
			if ex.RemoteThm1 != nil {
				return ex.RemoteThm1(ctx, job)
			}
			return RunThm1Job(job)
		},
		Record: func(_ int, s SweepSample) (SweepSample, error) { return s, nil },
		Fold: func(i int, s SweepSample, _ bool) error {
			samples[i] = s
			return nil
		},
	}
	cells := make([]SweepCell, 0, len(sizes))
	for _, n = range sizes {
		t = (n - 1) / 31
		params, err := core.Prepare(n, t)
		if err != nil {
			return nil, err
		}
		// One probe instance only to size and name the portfolio; trial
		// adversaries are built fresh inside each RunThm1Job call.
		probe := append(adversary.Registry(n, t, baseSeed), adversary.NewEclipse(params.Graph, t, n/10))
		names = make([]string, len(probe))
		for i, a := range probe {
			names[i] = a.Name()
		}
		total := len(probe) * seeds
		camp.Workers, trialShards = partrial.Budget(total, ex.Workers, ex.Shards)
		samples = make([]SweepSample, total)
		camp.Expect(total)
		if err := camp.Run(total); err != nil {
			return nil, err
		}
		cell := SweepCell{N: n, T: t, Samples: samples}
		rs := make([]int64, total)
		cs := make([]int64, total)
		bs := make([]int64, total)
		for i, s := range samples {
			rs[i], cs[i], bs[i] = s.Rounds, s.CommBits, s.RandBits
		}
		cell.Rounds, cell.CommBits, cell.RandBits = QuantilesOf(rs), QuantilesOf(cs), QuantilesOf(bs)
		cells = append(cells, cell)
	}
	return cells, camp.Finish()
}

// Thm1Trial runs a single Theorem-1 execution — OptimalOmissionsConsensus
// at maximal fault load t = (n-1)/31 against the group-killing adversary —
// in the given simulator execution mode and verifies consensus. It is the
// unit the large-n smoke tests and CI build on: one trial exercises the
// full canonical-order/View/legality path at scales the sweep runners
// only reach with shard workers.
func Thm1Trial(n int, seed uint64, shards int) (*sim.Result, error) {
	t := (n - 1) / 31
	params, err := core.Prepare(n, t)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		N: n, T: t,
		Inputs:    spreadInputs(n, n/2),
		Seed:      seed,
		Adversary: adversary.NewGroupKiller(n, t),
		MaxRounds: params.TotalRoundsBound() + 64,
		Shards:    shards,
	}, core.Protocol(params))
	if err != nil {
		return nil, fmt.Errorf("experiments: n=%d trial: %w", n, err)
	}
	if cerr := res.CheckConsensus(); cerr != nil {
		return nil, fmt.Errorf("experiments: n=%d trial: consensus violated: %w", n, cerr)
	}
	return res, nil
}

// Worst reduces detailed cells to the worst-case Thm1Points: max rounds
// (the sample attaining it names the worst adversary, ties broken toward
// higher communication) and independent maxima for bits.
func Worst(cells []SweepCell) []Thm1Point {
	points := make([]Thm1Point, 0, len(cells))
	for _, c := range cells {
		pt := Thm1Point{N: c.N, T: c.T, WorstAdversary: "none"}
		for _, s := range c.Samples {
			if s.Rounds > pt.Rounds || (s.Rounds == pt.Rounds && s.CommBits > pt.CommBits) {
				pt.Rounds = s.Rounds
				pt.WorstAdversary = s.Adversary
			}
			if s.CommBits > pt.CommBits {
				pt.CommBits = s.CommBits
			}
			if s.RandBits > pt.RandBits {
				pt.RandBits = s.RandBits
			}
		}
		points = append(points, pt)
	}
	return points
}

// Thm1Fits estimates the scaling exponents of rounds and communication
// against n; the paper predicts ~0.5 and ~2 up to polylog factors.
func Thm1Fits(points []Thm1Point) (rounds, commBits stats.Power, err error) {
	ns := make([]float64, len(points))
	rs := make([]float64, len(points))
	bs := make([]float64, len(points))
	for i, p := range points {
		ns[i] = float64(p.N)
		rs[i] = float64(p.Rounds)
		bs[i] = float64(p.CommBits)
	}
	rounds, err = stats.PowerFit(ns, rs)
	if err != nil {
		return
	}
	commBits, err = stats.PowerFit(ns, bs)
	return
}

// Thm3Point is one measured cell of the Theorem 3 row (E2).
type Thm3Point struct {
	X        int
	Rounds   float64
	RandBits float64
	CommBits float64
}

// Thm3Sweep measures ParamOmissions across the super-process spectrum at
// fixed (n, t), averaging over seeds, against the group-killing adversary
// (the strategy that burns round-robin phases). Seeds run on a partrial
// pool; per-seed metrics are summed in seed order, so the averages are
// bitwise independent of the worker count. ex supplies the execution
// knobs; journaled seed measurements are replayed bitwise on resume.
func Thm3Sweep(n, t int, xs []int, seeds int, baseSeed uint64, allowLargeT bool, ex Exec) ([]Thm3Point, error) {
	// One x is one batch on the campaign kernel; the callbacks read the
	// current point and its prepared parameters from these variables.
	var (
		x      int
		pt     Thm3Point
		params paramomissions.Params
	)
	poolWorkers, trialShards := partrial.Budget(seeds, ex.Workers, ex.Shards)
	camp := &campaign.Campaign[metrics.Snapshot, metrics.Snapshot]{
		Name: "experiments", Ctx: ex.Ctx, Workers: poolWorkers, Journal: ex.Journal,
		Key: func(s int) string {
			return journal.Key("sweep-thm3/v1", n, t, x, s, baseSeed, allowLargeT, ex.Shards)
		},
		Produce: func(_ context.Context, s int) (metrics.Snapshot, error) {
			res, err := sim.Run(sim.Config{
				N: n, T: t,
				Inputs:    spreadInputs(n, n/2),
				Seed:      baseSeed + uint64(s)*31,
				Adversary: adversary.NewGroupKiller(n, t),
				MaxRounds: params.TotalRoundsBound() + 64,
				Shards:    trialShards,
			}, paramomissions.Protocol(params))
			if err != nil {
				return metrics.Snapshot{}, fmt.Errorf("experiments: x=%d: %w", x, err)
			}
			if cerr := res.CheckConsensus(); cerr != nil {
				return metrics.Snapshot{}, fmt.Errorf("experiments: x=%d: consensus violated: %w", x, cerr)
			}
			snap := res.Metrics
			snap.Rounds = int64(res.RoundsNonFaulty())
			return snap, nil
		},
		Record: func(_ int, snap metrics.Snapshot) (metrics.Snapshot, error) { return snap, nil },
		Fold: func(_ int, snap metrics.Snapshot, _ bool) error {
			pt.Rounds += float64(snap.Rounds)
			pt.RandBits += float64(snap.RandomBits)
			pt.CommBits += float64(snap.CommBits)
			return nil
		},
	}
	var points []Thm3Point
	for _, x = range xs {
		if n/x < 4 {
			continue
		}
		var opts []paramomissions.Option
		if allowLargeT {
			opts = append(opts, paramomissions.AllowLargeT())
		}
		var err error
		if params, err = paramomissions.Prepare(n, t, x, opts...); err != nil {
			return nil, err
		}
		pt = Thm3Point{X: x}
		if err := camp.Run(seeds); err != nil {
			return nil, err
		}
		k := float64(seeds)
		pt.Rounds /= k
		pt.RandBits /= k
		pt.CommBits /= k
		points = append(points, pt)
	}
	return points, camp.Finish()
}

// EpochPoint is one cell of the Figure-3 dynamics experiment: the epoch
// behaviour of Algorithm 1's voting rule as a function of the starting
// one-fraction.
type EpochPoint struct {
	Ones int
	// Unified1 and Unified3 are the empirical probabilities that all
	// operative processes hold the same candidate value after 1 and 3
	// fault-free epochs (Lemma 10 promises a constant for the
	// three-epoch figure).
	Unified1, Unified3 float64
	// MeanCoins is the average number of random bits drawn per epoch
	// triple — nonzero only inside Figure 3's coin zone.
	MeanCoins float64
}

// EpochDynamics sweeps the starting one-fraction and measures unification
// probabilities and coin usage — the empirical content of Figure 3 and
// Lemma 10.
func EpochDynamics(n, t int, onesList []int, seeds int, baseSeed uint64) ([]EpochPoint, error) {
	params, err := core.Prepare(n, t)
	if err != nil {
		return nil, err
	}
	points := make([]EpochPoint, 0, len(onesList))
	for _, ones := range onesList {
		pt := EpochPoint{Ones: ones}
		for s := 0; s < seeds; s++ {
			seed := baseSeed + uint64(s)*733
			rep1, err := core.RunEpochExperiment(params, spreadInputs(n, ones), 1, nil, seed)
			if err != nil {
				return nil, err
			}
			rep3, err := core.RunEpochExperiment(params, spreadInputs(n, ones), 3, nil, seed)
			if err != nil {
				return nil, err
			}
			if rep1.Unified() {
				pt.Unified1++
			}
			if rep3.Unified() {
				pt.Unified3++
			}
			pt.MeanCoins += float64(rep3.Metrics.RandomBits)
		}
		k := float64(seeds)
		pt.Unified1 /= k
		pt.Unified3 /= k
		pt.MeanCoins /= k
		points = append(points, pt)
	}
	return points, nil
}

// SurvivalPoint is one cell of the Lemma 7 survival curve: the minimum
// number of operative processes observed across seeds at a given fault
// load, against the n-3t floor.
type SurvivalPoint struct {
	T            int
	MinOperative int
	Floor        int
	MeanUnified  float64
}

// OperativeSurvival measures the Lemma-7 floor empirically: single epochs
// under the rotating-eclipse adversary at escalating fault loads (beyond
// the n/30 proof bound — the floor formula is what is being charted).
func OperativeSurvival(n int, ts []int, seeds int, baseSeed uint64) ([]SurvivalPoint, error) {
	points := make([]SurvivalPoint, 0, len(ts))
	for _, t := range ts {
		params, err := core.Prepare(n, t, core.AllowLargeT())
		if err != nil {
			return nil, err
		}
		pt := SurvivalPoint{T: t, MinOperative: n, Floor: n - 3*t}
		for s := 0; s < seeds; s++ {
			adv := adversary.NewRotatingEclipse(params.Graph, t, 4)
			rep, err := core.RunEpochExperiment(params, spreadInputs(n, n/2), 2, adv, baseSeed+uint64(s)*19)
			if err != nil {
				return nil, err
			}
			operative := 0
			for _, op := range rep.Operative {
				if op {
					operative++
				}
			}
			if operative < pt.MinOperative {
				pt.MinOperative = operative
			}
			if rep.Unified() {
				pt.MeanUnified++
			}
		}
		pt.MeanUnified /= float64(seeds)
		points = append(points, pt)
	}
	return points, nil
}

// MessagesPoint is one cell of the message-floor comparison (E4).
type MessagesPoint struct {
	Algorithm string
	Messages  float64
	PerT2     float64
}

// MessageFloor measures the message counts of the named protocols under
// the group-killing adversary, normalized by t^2 (the Abraham et al.
// lower-bound scale).
func MessageFloor(n, t, seeds int, baseSeed uint64, protocols map[string]sim.Protocol, maxRounds int) ([]MessagesPoint, error) {
	var points []MessagesPoint
	for name, proto := range protocols {
		pt := MessagesPoint{Algorithm: name}
		for s := 0; s < seeds; s++ {
			res, err := sim.Run(sim.Config{
				N: n, T: t,
				Inputs:    spreadInputs(n, n/2),
				Seed:      baseSeed + uint64(s)*7,
				Adversary: adversary.NewGroupKiller(n, t),
				MaxRounds: maxRounds,
			}, proto)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			pt.Messages += float64(res.Metrics.Messages)
		}
		pt.Messages /= float64(seeds)
		if t > 0 {
			pt.PerT2 = pt.Messages / float64(t*t)
		}
		points = append(points, pt)
	}
	return points, nil
}
