package sim

import (
	"errors"
	"fmt"

	"omicon/internal/rng"
	"omicon/internal/trace"
)

// Protocol is the code run by every process: it receives its environment and
// input bit and returns its consensus decision. A protocol must either call
// Exchange or return; it must not block on anything else.
type Protocol func(env Env, input int) (decision int, err error)

// Config describes one execution.
type Config struct {
	// N is the number of processes; T the adversary's corruption budget.
	N, T int
	// Inputs holds the N input bits.
	Inputs []int
	// Seed makes the execution reproducible; process p's random source
	// is derived from (Seed, p) and the adversary may derive its own
	// unmetered stream from Seed.
	Seed uint64
	// Adversary is the strategy to run against; nil means NoFaults.
	Adversary Adversary
	// MaxRounds aborts runaway executions; 0 selects 60*N + 4096, far
	// above every protocol in this codebase at any tested scale.
	MaxRounds int
	// Trace receives structured per-round events (round boundaries with
	// cost deltas, span attribution, corruptions, decisions). A nil or
	// disabled tracer keeps the engine on its untraced hot path.
	Trace *trace.Tracer
	// Shards splits the processes into contiguous shards, each stepped by
	// a worker goroutine of its own. 0 (the default) and 1 mean one shard:
	// the caller's goroutine steps every process and no worker starts.
	// ShardsAuto (or any negative value) uses GOMAXPROCS shards; k >= 2
	// uses k (clamped to N). Every shard count is observably identical —
	// results, metrics, traces and transcripts are byte-for-byte the same
	// (the conformance suites in this package and internal/torture pin
	// that contract); only wall-clock time changes. See
	// docs/PERFORMANCE.md.
	Shards int
}

// ShardsAuto selects one shard, and one worker, per GOMAXPROCS.
const ShardsAuto = -1

// WithShards returns a copy of the Config with k shards; k <= 0 selects
// ShardsAuto.
func (c Config) WithShards(k int) Config {
	if k <= 0 {
		k = ShardsAuto
	}
	c.Shards = k
	return c
}

// Errors reported by the engine.
var (
	// ErrMaxRounds signals a runaway execution.
	ErrMaxRounds = errors.New("sim: execution exceeded MaxRounds")
	// ErrBudget signals that the adversary tried to corrupt more than t
	// processes.
	ErrBudget = errors.New("sim: adversary exceeded corruption budget")
	// ErrIllegalOmission signals a drop of a message between two
	// non-corrupted processes.
	ErrIllegalOmission = errors.New("sim: omission of a message between non-corrupted processes")
)

// normalize validates cfg and applies the defaults.
func (c Config) normalize() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("sim: invalid N=%d", c.N)
	}
	if len(c.Inputs) != c.N {
		return c, fmt.Errorf("sim: got %d inputs for N=%d", len(c.Inputs), c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return c, fmt.Errorf("sim: invalid T=%d for N=%d", c.T, c.N)
	}
	if c.Adversary == nil {
		c.Adversary = NoFaults{}
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 60*c.N + 4096
	}
	return c, nil
}

// newResult builds the pre-execution Result shell.
func newResult(cfg Config) *Result {
	res := &Result{
		Adversary:    cfg.Adversary.Name(),
		Inputs:       append([]int(nil), cfg.Inputs...),
		Decisions:    make([]int, cfg.N),
		TerminatedAt: make([]int, cfg.N),
	}
	for p := 0; p < cfg.N; p++ {
		res.Decisions[p] = -1
		res.TerminatedAt[p] = -1
	}
	return res
}

// Run executes proto under cfg and returns the outcome. The returned error
// reports engine- or protocol-level failures (illegal adversary actions,
// protocol bugs, runaway executions); consensus-property violations are
// checked on the Result, not here. A protocol that panics fails the whole
// execution: the panic reaches Run's caller with its original value.
func Run(cfg Config, proto Protocol) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	s := newEngine(cfg, proto)
	err = s.loop()
	if s.panicked != nil {
		panic(s.panicked)
	}
	rng.SyncTotals(s.counters, s.sources...)
	res := s.res
	res.Corrupted = s.legality.Mask()
	res.Metrics = s.counters.Snapshot()
	if s.obs != nil {
		s.obs.finish(s.lastRound, res.Metrics)
	}
	if err != nil {
		return res, err
	}
	if res.protocolErr != nil {
		return res, res.protocolErr
	}
	return res, nil
}
