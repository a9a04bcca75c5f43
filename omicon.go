// Package omicon is a from-scratch Go reproduction of "Nearly-Optimal
// Consensus Tolerating Adaptive Omissions: Why is a Lot of Randomness
// Needed?" by Hajiaghayi, Kowalski and Olkowski (PODC 2024).
//
// It provides:
//
//   - OptimalOmissionsConsensus (Algorithm 1 / Theorem 1): randomized
//     consensus in O(sqrt(n) log^2 n) rounds and O(n^2 log^3 n)
//     communication bits against an adaptive, full-information adversary
//     causing omission faults at up to t < n/30 processes;
//   - ParamOmissions (Algorithm 4 / Theorem 3): the time-for-randomness
//     trade-off running in ~n^2/R rounds on ~R random bits;
//   - the substrates both need — a deterministic synchronous simulator
//     with a budgeted, engine-enforced omission adversary, the Theorem-4
//     expander communication graphs, the sqrt(n) group decomposition with
//     binary-tree aggregation, and a deterministic phase-king backstop;
//   - the baselines and lower-bound machinery of the paper's Table 1:
//     a Bar-Joseph/Ben-Or-style crash-model protocol, the coin-flipping
//     game of Lemma 12, and the coin-hiding adversary with the
//     O(sqrt(r_i log n)) per-round budget of Theorem 2.
//
// Quick start:
//
//	res, err := omicon.Solve(omicon.Config{
//		N: 64, T: 2,
//		Inputs:    omicon.MixedInputs(64, 32),
//		Adversary: omicon.SplitVote(2, 1),
//	})
//	if err != nil { ... }
//	decision, err := res.Decision()
//
// For repeated executions over the same (n, t) instance, build an Instance
// once (graph construction and parameter derivation are amortized) and call
// Run per execution.
package omicon

import (
	"fmt"

	"omicon/internal/benor"
	"omicon/internal/core"
	"omicon/internal/dolevstrong"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/metrics"
	"omicon/internal/paramomissions"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
	"omicon/internal/trace"
)

// Re-exported simulator types. The implementation lives in internal
// packages; these aliases are the supported public names.
type (
	// Adversary is an adaptive full-information omission strategy.
	Adversary = sim.Adversary
	// View is the full-information view given to adversaries each round.
	View = sim.View
	// Action is an adversary's per-round decision.
	Action = sim.Action
	// Message is an in-flight point-to-point message.
	Message = sim.Message
	// Result is the outcome of one execution, including the three
	// complexity metrics of the paper's Section 2.
	Result = sim.Result
	// Metrics aggregates rounds, messages, communication bits and
	// randomness.
	Metrics = metrics.Snapshot
	// Env is the environment protocols run against; custom protocols
	// can be written against it and executed with RunProtocol.
	Env = sim.Env
	// Protocol is a per-process protocol function.
	Protocol = sim.Protocol
	// Tracer emits the structured per-round event stream of a traced
	// execution (see Config.Trace and docs/OBSERVABILITY.md).
	Tracer = trace.Tracer
)

// NewTracer wraps a trace sink (e.g. trace.Capture, trace.NewJSONL) as a
// Tracer for Config.Trace. A nil tracer disables tracing at near-zero cost.
func NewTracer(sink trace.Sink) *Tracer { return trace.New(sink) }

// Algorithm selects which consensus protocol to run.
type Algorithm int

// The implemented algorithms.
const (
	// OptimalOmissions is Algorithm 1 (Theorem 1), the paper's primary
	// contribution.
	OptimalOmissions Algorithm = iota + 1
	// ParamOmissions is Algorithm 4 (Theorem 3), trading time for
	// randomness via X super-processes.
	ParamOmissions
	// BenOr is the Bar-Joseph/Ben-Or-style crash-model baseline ([10]).
	BenOr
	// PhaseKing is the deterministic zero-randomness baseline
	// (the paper's Dolev-Strong role; see DESIGN.md for the
	// substitution).
	PhaseKing
	// FloodSet is the classic crash-model flooding algorithm (Lynch).
	// It is included as the separation exhibit: correct under crashes,
	// broken by a one-corruption omission attack (FloodSplit) — the gap
	// the paper's algorithms close.
	FloodSet
	// EarlyStopping is the early-stopping omission consensus of the
	// related-work line [33]/[34]: worst case O(t) phases, but O(f)
	// phases when only f <= t faults actually occur. Requires t < n/6.
	EarlyStopping
	// DolevStrong is the protocol the paper cites for Algorithm 1's
	// deterministic backstop ([15], Theorem 4): t+1 rounds, tolerates
	// t < n/2 omission faults, signature chains degenerate to signer
	// identities in the omission model.
	DolevStrong
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case OptimalOmissions:
		return "optimal-omissions"
	case ParamOmissions:
		return "param-omissions"
	case BenOr:
		return "benor"
	case PhaseKing:
		return "phase-king"
	case FloodSet:
		return "floodset"
	case EarlyStopping:
		return "early-stopping"
	case DolevStrong:
		return "dolev-strong"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a CLI name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "optimal", "optimal-omissions":
		return OptimalOmissions, nil
	case "param", "param-omissions":
		return ParamOmissions, nil
	case "benor":
		return BenOr, nil
	case "phaseking", "phase-king":
		return PhaseKing, nil
	case "floodset":
		return FloodSet, nil
	case "earlystop", "early-stopping":
		return EarlyStopping, nil
	case "dolevstrong", "dolev-strong":
		return DolevStrong, nil
	default:
		return 0, fmt.Errorf("omicon: unknown algorithm %q", s)
	}
}

// Config describes one consensus execution.
type Config struct {
	// N is the number of processes, T the adversary's corruption budget.
	// Theorem 1 requires T < N/30 (ParamOmissions: T < N/60); set
	// AllowLargeT to probe beyond the proven regime.
	N, T int
	// Algorithm selects the protocol; zero value means OptimalOmissions.
	Algorithm Algorithm
	// X is ParamOmissions' super-process count (0 picks sqrt(N)/2).
	X int
	// RandomnessCap limits how many processes may access randomness per
	// epoch in the BenOr baseline (0 = all) — the knob of the Theorem-2
	// trade-off experiments.
	RandomnessCap int
	// Inputs holds the N input bits (see UnanimousInputs, MixedInputs,
	// RandomInputs).
	Inputs []int
	// Seed makes the execution reproducible.
	Seed uint64
	// Adversary is the strategy to run against (nil = fault-free).
	Adversary Adversary
	// MaxRounds guards runaway executions (0 = derived bound).
	MaxRounds int
	// Trace, when non-nil, streams structured per-round events (round
	// boundaries with cost deltas, phase spans, corruptions, decisions)
	// to its sink; see docs/OBSERVABILITY.md.
	Trace *Tracer
	// Shards splits the simulated processes into shards: 0 and 1 step every
	// process on the caller's goroutine, -1 uses one shard worker per
	// GOMAXPROCS, k >= 2 exactly k. Results are byte-identical at every
	// count; see docs/PERFORMANCE.md.
	Shards int
	// PaperScale uses the paper's literal constants (Δ = 832 log n,
	// 8 log n gossip rounds) instead of the simulation-scale defaults.
	PaperScale bool
	// AllowLargeT disables the fault-bound guards.
	AllowLargeT bool
}

// Instance is a prepared consensus instance: graphs, partitions and derived
// parameters for a fixed (N, T, Algorithm) tuple, reusable across
// executions.
type Instance struct {
	cfg      Config
	protocol sim.Protocol
	// maxRounds is the derived execution bound.
	maxRounds int

	coreParams  *core.Params
	paramParams *paramomissions.Params
}

// NewInstance prepares an instance from cfg (Inputs, Seed and Adversary in
// cfg are defaults that Run can override per execution).
func NewInstance(cfg Config) (*Instance, error) {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = OptimalOmissions
	}
	inst := &Instance{cfg: cfg}
	switch cfg.Algorithm {
	case OptimalOmissions:
		var opts []core.Option
		if cfg.PaperScale {
			opts = append(opts, core.PaperScale())
		}
		if cfg.AllowLargeT {
			opts = append(opts, core.AllowLargeT())
		}
		p, err := core.Prepare(cfg.N, cfg.T, opts...)
		if err != nil {
			return nil, err
		}
		inst.coreParams = &p
		inst.protocol = core.Protocol(p)
		inst.maxRounds = p.TotalRoundsBound() + 64
	case ParamOmissions:
		x := cfg.X
		if x == 0 {
			x = defaultX(cfg.N)
		}
		var opts []paramomissions.Option
		if cfg.AllowLargeT {
			opts = append(opts, paramomissions.AllowLargeT())
		}
		p, err := paramomissions.Prepare(cfg.N, cfg.T, x, opts...)
		if err != nil {
			return nil, err
		}
		inst.paramParams = &p
		inst.protocol = paramomissions.Protocol(p)
		inst.maxRounds = p.TotalRoundsBound() + 64
	case BenOr:
		p := benor.DefaultParams(cfg.N, cfg.T)
		p.NumCoiners = cfg.RandomnessCap
		inst.protocol = benor.Protocol(p)
		inst.maxRounds = 200*cfg.N + 10000
	case PhaseKing:
		inst.protocol = func(env sim.Env, input int) (int, error) {
			return phaseking.Consensus(env, input)
		}
		inst.maxRounds = 2*(cfg.T+1) + 16
	case FloodSet:
		inst.protocol = floodset.Protocol()
		inst.maxRounds = floodset.Rounds(cfg.T) + 16
	case EarlyStopping:
		inst.protocol = earlystop.Protocol()
		inst.maxRounds = earlystop.MaxRounds(cfg.T) + 16
	case DolevStrong:
		inst.protocol = dolevstrong.Protocol()
		inst.maxRounds = dolevstrong.Rounds(cfg.T) + 16
	default:
		return nil, fmt.Errorf("omicon: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.MaxRounds > 0 {
		inst.maxRounds = cfg.MaxRounds
	}
	return inst, nil
}

// Run executes the instance once with the given inputs, seed and adversary
// (nil adversary = fault-free).
func (inst *Instance) Run(inputs []int, seed uint64, adv Adversary) (*Result, error) {
	return sim.Run(sim.Config{
		N: inst.cfg.N, T: inst.cfg.T,
		Inputs:    inputs,
		Seed:      seed,
		Adversary: adv,
		MaxRounds: inst.maxRounds,
		Trace:     inst.cfg.Trace,
		Shards:    inst.cfg.Shards,
	}, inst.protocol)
}

// Config returns the configuration the instance was prepared from.
func (inst *Instance) Config() Config { return inst.cfg }

// Describe returns a human-readable summary of the prepared instance:
// algorithm, derived schedule and substrate parameters.
func (inst *Instance) Describe() string {
	s := fmt.Sprintf("%s: n=%d t=%d maxRounds=%d", inst.cfg.Algorithm, inst.cfg.N, inst.cfg.T, inst.maxRounds)
	if p := inst.coreParams; p != nil {
		s += fmt.Sprintf(" epochs=%d epochRounds=%d gossipRounds=%d graphDelta=%d fallbackPhases=%d",
			p.Epochs, p.EpochRounds(), p.GossipRounds, p.GraphParams.Delta, p.FallbackPhases)
	}
	if p := inst.paramParams; p != nil {
		s += fmt.Sprintf(" x=%d roundRobinRounds=%d floodRounds=%d graphDelta=%d",
			p.X, p.RoundRobinRounds(), p.FloodRounds, p.GraphParams.Delta)
	}
	return s
}

// Solve prepares an instance and runs it once with cfg's inputs, seed and
// adversary.
func Solve(cfg Config) (*Result, error) {
	inst, err := NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("omicon: got %d inputs for N=%d", len(cfg.Inputs), cfg.N)
	}
	return inst.Run(cfg.Inputs, cfg.Seed, cfg.Adversary)
}

// RunProtocol executes a user-supplied protocol in the simulator — the
// escape hatch for experimenting with custom algorithms against the
// adversary portfolio.
func RunProtocol(n, t int, inputs []int, seed uint64, adv Adversary, p Protocol) (*Result, error) {
	return sim.Run(sim.Config{N: n, T: t, Inputs: inputs, Seed: seed, Adversary: adv}, p)
}

// defaultX picks a middle-of-the-spectrum super-process count.
func defaultX(n int) int {
	x := 1
	for x*x*16 < n { // x ≈ sqrt(n)/4
		x++
	}
	return x
}
