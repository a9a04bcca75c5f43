// Package core implements the paper's primary contribution:
// OptimalOmissionsConsensus (Algorithm 1 / Theorem 1) together with its two
// communication subroutines GroupBitsAggregation (Algorithm 2, the
// binary-tree intra-group counting of "technical advancement 1") and
// GroupBitsSpreading (Algorithm 3, the expander gossip of "technical
// advancement 2").
//
// The protocol reaches consensus among n processes against an adaptive,
// full-information adversary causing omission faults at up to t < n/30
// processes, in O(t/sqrt(n) * log^2 n) rounds with O(n(t log^3 n + n))
// communication bits and O(t sqrt(n) log^2 n) random bits, with high
// probability (Theorem 5).
package core

import (
	"fmt"
	"math"

	"omicon/internal/graph"
	"omicon/internal/partition"
)

// Voting thresholds of Algorithm 1, lines 9-12, as fractions over 30 (see
// Figure 3): set b=1 above High, b=0 below Low, coin-flip in between; mark
// decided outside [DecideLow, DecideHigh].
const (
	thresholdDenom = 30
	thresholdHigh  = 18
	thresholdLow   = 15
	decideHigh     = 27
	decideLow      = 3
)

// Params carries every tunable of Algorithm 1. The paper's constants are
// asymptotic; Prepare derives defaults that preserve the protocol's
// combinatorial requirements at simulation scale, and PaperScale restores
// the literal constants.
type Params struct {
	// N and T are the system size and fault budget the instance was
	// prepared for.
	N, T int

	// Epochs is the number of biased-majority epochs (the paper's
	// ceil(t/sqrt(n)) * log n, floored at log n so the coin converges
	// whp even for small t).
	Epochs int

	// GossipRounds is the length of each GroupBitsSpreading call
	// (8 log n in Algorithm 3).
	GossipRounds int

	// FallbackPhases is the phase budget handed to the deterministic
	// backstop of line 18. Algorithm 1 needs a phase whose king is a
	// non-faulty fallback participant; at most t faulty + 3t inoperative
	// + t decided-but-silent slots can be bad kings in the reachable
	// fallback cases, so 5t+1 suffices (see internal/phaseking).
	FallbackPhases int

	// OperativeThreshold is the per-round message minimum of Algorithm 3
	// (Δ/3 in the paper): an operative process receiving fewer gossip
	// messages becomes inoperative.
	OperativeThreshold int

	// Graph is the Theorem-4 communication graph; Decomp is the
	// sqrt(n)-decomposition; Tree is the shared per-group bag tree.
	// They are precomputed once per execution: every process would
	// derive the identical structures locally (they are pure functions
	// of n), so sharing them is an optimization, not a communication
	// channel.
	Graph  *graph.Graph
	Decomp *partition.Decomposition
	Tree   partition.Tree

	// GraphParams records the parameters Graph was built with.
	GraphParams graph.Params

	// NoGossipDedup disables Algorithm 3's "each group's counts travel
	// over each edge at most once" rule, re-sending all known entries
	// every round. Used only by the ablation benchmarks, which quantify
	// how much communication the dedup rule saves.
	NoGossipDedup bool

	// Fallback selects the line-18 deterministic backstop: the default
	// phase-king, or Dolev-Strong — the protocol the paper literally
	// cites (Theorem 4 in [15]); see internal/dolevstrong for why its
	// guarantees carry to the omission model without signatures.
	Fallback FallbackKind

	pids []int // 0..N-1: a send to all others is two Sends over its halves
}

// FallbackKind enumerates the deterministic backstop protocols.
type FallbackKind int

// The available backstops.
const (
	// FallbackPhaseKing is the default (2 rounds per phase).
	FallbackPhaseKing FallbackKind = iota
	// FallbackDolevStrong is the paper's citation (1 round per phase,
	// heavier messages).
	FallbackDolevStrong
)

// Option customizes Prepare.
type Option func(*options)

type options struct {
	paperScale  bool
	epochs      int
	gossip      int
	allowLargeT bool
	graphParams *graph.Params
	fallback    FallbackKind
}

// PaperScale selects the literal constants of the paper (Δ = 832 log n,
// 8 log n gossip rounds). At laptop-size n this makes the graph complete;
// useful for documentation-grade runs, not for scaling measurements.
func PaperScale() Option { return func(o *options) { o.paperScale = true } }

// WithEpochs overrides the epoch count.
func WithEpochs(e int) Option { return func(o *options) { o.epochs = e } }

// WithGossipRounds overrides the GroupBitsSpreading round count.
func WithGossipRounds(r int) Option { return func(o *options) { o.gossip = r } }

// WithGraphParams overrides the communication-graph parameters.
func WithGraphParams(p graph.Params) Option {
	return func(o *options) { o.graphParams = &p }
}

// AllowLargeT disables the t < n/30 guard, for stress experiments that
// probe the protocol beyond its proven fault regime.
func AllowLargeT() Option { return func(o *options) { o.allowLargeT = true } }

// WithFallback selects the line-18 deterministic backstop.
func WithFallback(kind FallbackKind) Option {
	return func(o *options) { o.fallback = kind }
}

// Prepare computes the shared structures and default parameters for an
// (n, t) instance.
func Prepare(n, t int, opts ...Option) (Params, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if n < 4 {
		return Params{}, fmt.Errorf("core: need n >= 4, got %d (route smaller systems to phaseking)", n)
	}
	if t < 0 {
		return Params{}, fmt.Errorf("core: negative t=%d", t)
	}
	if !o.allowLargeT && 30*t >= n {
		return Params{}, fmt.Errorf("core: t=%d violates t < n/30 for n=%d (Theorem 1's fault bound)", t, n)
	}

	gp := graph.PracticalParams(n)
	if o.paperScale {
		gp = graph.PaperParams(n)
	}
	if o.graphParams != nil {
		gp = *o.graphParams
	}
	g, err := graph.Build(n, gp)
	if err != nil {
		return Params{}, fmt.Errorf("core: %w", err)
	}

	logN := int(math.Ceil(math.Log2(float64(n))))
	if logN < 1 {
		logN = 1
	}
	epochs := o.epochs
	if epochs == 0 {
		factor := int(math.Ceil(float64(t) / math.Sqrt(float64(n))))
		if factor < 1 {
			factor = 1
		}
		epochs = factor * logN
	}
	gossip := o.gossip
	if gossip == 0 {
		if o.paperScale {
			gossip = 8 * logN
		} else {
			// The practical graph has diameter O(log n / log Δ);
			// 2 log n + 2 rounds give ample slack for the
			// disregard-and-reroute dynamics of Algorithm 3.
			gossip = 2*logN + 2
		}
	}

	// The Δ/3 operative rule presumes degrees ≈ Δ; when the configured Δ
	// exceeds n-1 (the paper's constants at simulation scale), the
	// achievable degree is what the rule must reference.
	effectiveDelta := gp.Delta
	if effectiveDelta > n-1 {
		effectiveDelta = n - 1
	}

	decomp := partition.Sqrt(n)
	return Params{
		N:                  n,
		T:                  t,
		Epochs:             epochs,
		GossipRounds:       gossip,
		FallbackPhases:     5*t + 1,
		OperativeThreshold: maxInt(1, effectiveDelta/3),
		Graph:              g,
		Decomp:             decomp,
		Tree:               partition.NewTree(decomp.MaxGroupSize()),
		GraphParams:        gp,
		Fallback:           o.fallback,
		pids:               partition.Blocks(n, 1).Group(0),
	}, nil
}

// EpochRounds returns the exact number of communication rounds one epoch
// consumes: 3 rounds per tree stage plus the gossip rounds. Every process,
// operative or not, consumes exactly this many rounds per epoch, keeping
// the whole system in lockstep.
func (p Params) EpochRounds() int {
	stages := p.Tree.Layers() - 1
	if stages < 0 {
		stages = 0
	}
	return 3*stages + p.GossipRounds
}

// TotalRoundsBound returns an upper bound on the rounds a full execution may
// take, including the deterministic fallback (used for MaxRounds guards and
// the truncation budget of ParamOmissions).
func (p Params) TotalRoundsBound() int {
	// 2*FallbackPhases+1 covers the longer of the two backstops
	// (phase-king: 2*phases+1; Dolev-Strong: phases+2).
	return p.Epochs*p.EpochRounds() + 1 + 2*p.FallbackPhases + 1
}

// TruncatedRounds returns the exact number of rounds TruncatedConsensus
// consumes: all epochs plus the line-14/15 decision broadcast round
// (Algorithm 1 truncated at line 16, as ParamOmissions requires).
func (p Params) TruncatedRounds() int {
	return p.Epochs*p.EpochRounds() + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
