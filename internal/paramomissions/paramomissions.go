// Package paramomissions implements ParamOmissions (Algorithm 4 /
// Theorems 3 and 8): the algorithm that trades running time for
// randomness. The process set is partitioned into x super-processes
// SP_1..SP_x; in x round-robin phases each super-process runs a truncated
// OptimalOmissionsConsensus internally and floods the outcome to every
// operative process along the Theorem-4 graph, so each later phase starts
// from the propagated value. A deterministic safety rule (identical in
// structure to Algorithm 1's lines 14-20) lifts the success probability
// to 1.
//
// For groups of size n/x the inner protocol spends O((n/x)^{3/2} polylog)
// random bits per phase, so the whole execution uses R = O(x (n/x)^{3/2})
// = O(n^2/T) random bits while taking T = O(x sqrt(n/x)) = O(sqrt(nx))
// rounds — the interpolation between the deterministic (R = O(n)) and
// fully random (R = O(n^{3/2})) regimes of Table 1.
package paramomissions

import (
	"fmt"
	"math"

	"omicon/internal/core"
	"omicon/internal/graph"
	"omicon/internal/partition"
	"omicon/internal/wire"
)

// Params carries every tunable of Algorithm 4.
type Params struct {
	// N, T and X are the system size, the fault budget (Theorem 8
	// requires t < n/60) and the number of super-processes.
	N, T, X int

	// FloodRounds is the length of each flooding stage (2 log n in the
	// pseudocode).
	FloodRounds int

	// OperativeThreshold is the Δ/3 rule shared with Algorithm 1.
	OperativeThreshold int

	// FallbackPhases is the deterministic backstop's phase budget.
	FallbackPhases int

	// Graph is the global Theorem-4 graph used for flooding; Decomp the
	// super-process partition.
	Graph       *graph.Graph
	GraphParams graph.Params
	Decomp      *partition.Decomposition

	// inner holds the prepared OptimalOmissionsConsensus parameters per
	// distinct super-process size.
	inner map[int]core.Params

	pids []int // 0..N-1: a send to all others is two Sends over its halves
}

// Option customizes Prepare.
type Option func(*options)

type options struct {
	allowLargeT bool
	floodRounds int
	innerOpts   []core.Option
}

// AllowLargeT disables the t < n/60 guard for stress experiments.
func AllowLargeT() Option { return func(o *options) { o.allowLargeT = true } }

// WithFloodRounds overrides the flooding stage length.
func WithFloodRounds(r int) Option { return func(o *options) { o.floodRounds = r } }

// WithInnerOptions forwards options to the inner core.Prepare calls.
func WithInnerOptions(opts ...core.Option) Option {
	return func(o *options) { o.innerOpts = append(o.innerOpts, opts...) }
}

// Prepare computes shared structures for an (n, t, x) instance. Group sizes
// must be at least 4 (the inner protocol's minimum), so x <= n/4.
func Prepare(n, t, x int, opts ...Option) (Params, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if x < 1 {
		return Params{}, fmt.Errorf("paramomissions: need x >= 1, got %d", x)
	}
	if n/x < 4 {
		return Params{}, fmt.Errorf("paramomissions: group size n/x = %d/%d < 4", n, x)
	}
	if !o.allowLargeT && 60*t >= n {
		return Params{}, fmt.Errorf("paramomissions: t=%d violates t < n/60 for n=%d (Theorem 8's fault bound)", t, n)
	}

	gp := graph.PracticalParams(n)
	g, err := graph.Build(n, gp)
	if err != nil {
		return Params{}, fmt.Errorf("paramomissions: %w", err)
	}

	decomp := partition.Blocks(n, x)
	inner := make(map[int]core.Params)
	for gi := 0; gi < decomp.NumGroups(); gi++ {
		size := len(decomp.Group(gi))
		if _, ok := inner[size]; ok {
			continue
		}
		// The inner instance tolerates the largest budget Theorem 1
		// admits for its size; a reliable super-process (>= 29/30
		// non-faulty members, Lemma 17) stays within it.
		subT := (size - 1) / 31
		ip, err := core.Prepare(size, subT, o.innerOpts...)
		if err != nil {
			return Params{}, fmt.Errorf("paramomissions: inner instance size %d: %w", size, err)
		}
		inner[size] = ip
	}

	logN := int(math.Ceil(math.Log2(float64(n))))
	flood := o.floodRounds
	if flood == 0 {
		flood = 2*logN + 2
	}
	effectiveDelta := gp.Delta
	if effectiveDelta > n-1 {
		effectiveDelta = n - 1
	}
	return Params{
		N:                  n,
		T:                  t,
		X:                  x,
		FloodRounds:        flood,
		OperativeThreshold: maxInt(1, effectiveDelta/3),
		FallbackPhases:     5*t + 1,
		Graph:              g,
		GraphParams:        gp,
		Decomp:             decomp,
		inner:              inner,
		pids:               partition.Blocks(n, 1).Group(0),
	}, nil
}

// InnerParams returns the prepared inner-consensus parameters for a
// super-process of the given size.
func (p Params) InnerParams(size int) (core.Params, bool) {
	ip, ok := p.inner[size]
	return ip, ok
}

// PhaseRounds returns the exact number of rounds phase i consumes: the
// truncated inner consensus plus the flooding stage.
func (p Params) PhaseRounds(i int) int {
	size := len(p.Decomp.Group(i))
	return p.inner[size].TruncatedRounds() + p.FloodRounds
}

// RoundRobinRounds returns the exact length of the round-robin stage.
func (p Params) RoundRobinRounds() int {
	total := 0
	for i := 0; i < p.Decomp.NumGroups(); i++ {
		total += p.PhaseRounds(i)
	}
	return total
}

// TotalRoundsBound bounds a full execution, fallback included.
func (p Params) TotalRoundsBound() int {
	return p.RoundRobinRounds() + 2 + 2*p.FallbackPhases + 1
}

// FloodMsg carries the (possibly absent) propagated consensus decision.
type FloodMsg struct {
	Has bool
	B   int
}

// AppendWire implements wire.Marshaler.
func (m FloodMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendBool(buf, m.Has)
	if m.Has {
		buf = wire.AppendUvarint(buf, uint64(m.B))
	}
	return buf
}

// SafetyMsg is the line-17 all-to-all bit broadcast of the safety rule.
type SafetyMsg struct {
	B int
}

// AppendWire implements wire.Marshaler.
func (m SafetyMsg) AppendWire(buf []byte) []byte {
	return wire.AppendUvarint(buf, uint64(m.B))
}

// Snapshot is the full-information state published to the adversary.
type Snapshot struct {
	Phase     int
	Stage     string // "inner", "flood", "safety"
	B         int
	HasValue  bool
	Operative bool
	Decided   bool
}

// CandidateBit implements the observation interface.
func (s Snapshot) CandidateBit() int { return s.B }

// IsOperative implements the observation interface.
func (s Snapshot) IsOperative() bool { return s.Operative }

// HasDecided implements the observation interface.
func (s Snapshot) HasDecided() bool { return s.Decided }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
