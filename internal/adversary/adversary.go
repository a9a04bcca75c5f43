// Package adversary implements a portfolio of adaptive, full-information
// omission strategies for the model of Section 2. The paper's complexity
// bounds quantify over all adversarial strategies; an implementation can
// only ever run concrete ones, so the experiment harness takes the maximum
// over this portfolio and reports which strategy achieved it (a lower bound
// on the true supremum — see DESIGN.md).
//
// Every strategy obeys the model's rules mechanically — the engine enforces
// them anyway: corruption is permanent and budgeted by t, and only messages
// with a corrupted endpoint may be omitted.
package adversary

import (
	"math/rand/v2"
	"sort"

	"omicon/internal/rng"
	"omicon/internal/sim"
)

// stateObserver is the protocol-agnostic view of a process snapshot.
// core.Snapshot and benor.Snapshot implement it structurally.
type stateObserver interface {
	CandidateBit() int
	IsOperative() bool
	HasDecided() bool
}

// observe extracts the observer interface from a raw snapshot, if possible.
func observe(s any) (stateObserver, bool) {
	o, ok := s.(stateObserver)
	return o, ok
}

// Registry returns the full strategy portfolio for an (n, t, seed)
// instance. Strategies needing structure (groups, graphs) compute it
// themselves from n — the adversary knows the algorithm and its parameters.
func Registry(n, t int, seed uint64) []sim.Adversary {
	return []sim.Adversary{
		sim.NoFaults{},
		NewStaticCrash(firstK(t)),
		NewRandomOmission(t, 0.75, seed),
		NewGroupKiller(n, t),
		NewHalfVisibility(t),
		NewSplitVote(t, seed),
		NewDelayedStrike(t),
		NewChaos(t, 0.2, 0.7, seed),
	}
}

func firstK(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// dropTouching returns the indices of all outbox messages sent by a process
// marked in bad (a mask indexed by process id), and also of those addressed
// to one when alsoIncoming is set.
func dropTouching(v *sim.View, bad []bool, alsoIncoming bool) []int {
	var drop []int
	for i, m := range v.Outbox {
		if bad[m.From] || (alsoIncoming && bad[m.To]) {
			drop = append(drop, i)
		}
	}
	return drop
}

// corruptedSet merges the view's standing corruptions with a pending batch
// into a mask indexed by process id. Pending ids outside [0, N) are left
// out: rejecting them, with an error, is sim.Legality's job.
func corruptedSet(v *sim.View, pending []int) []bool {
	bad := make([]bool, v.N)
	copy(bad, v.Corrupted)
	for _, p := range pending {
		if p >= 0 && p < v.N {
			bad[p] = true
		}
	}
	return bad
}

// StaticCrash corrupts a fixed target set in round 1 and silences all their
// outgoing traffic forever — the omission encoding of permanent crashes
// described in Section 2.
type StaticCrash struct {
	targets []int
}

// NewStaticCrash returns the strategy for the given victims.
func NewStaticCrash(targets []int) *StaticCrash {
	return &StaticCrash{targets: append([]int(nil), targets...)}
}

// Name implements sim.Adversary.
func (s *StaticCrash) Name() string { return "static-crash" }

// Step implements sim.Adversary.
func (s *StaticCrash) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 {
		for _, p := range s.targets {
			if len(act.Corrupt) >= v.T {
				break
			}
			act.Corrupt = append(act.Corrupt, p)
		}
	}
	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, false)
	return act
}

// RandomOmission corrupts t uniformly random processes in round 1 and then
// omits each of their incident messages independently with a fixed rate —
// a noisy, non-strategic baseline that exercises partial omissions (a
// faulty process that keeps communicating "well enough" should remain
// operative, per the paper's partition rationale).
type RandomOmission struct {
	t    int
	rate float64
	rnd  *rand.Rand
}

// NewRandomOmission returns the strategy with the given drop rate.
func NewRandomOmission(t int, rate float64, seed uint64) *RandomOmission {
	return &RandomOmission{t: t, rate: rate, rnd: rng.Unmetered(seed, 0xad7e)}
}

// Name implements sim.Adversary.
func (a *RandomOmission) Name() string { return "random-omission" }

// Step implements sim.Adversary.
func (a *RandomOmission) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 && a.t > 0 {
		perm := a.rnd.Perm(v.N)
		act.Corrupt = perm[:minInt(a.t, v.T)]
	}
	bad := corruptedSet(v, act.Corrupt)
	for i, m := range v.Outbox {
		if (bad[m.From] || bad[m.To]) && a.rnd.Float64() < a.rate {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

// GroupKiller corrupts whole groups of the sqrt(n)-decomposition and
// silences them completely, erasing their operative counts from
// GroupBitsAggregation — the most direct attack on technical advancement 1.
type GroupKiller struct {
	targets []int
}

// NewGroupKiller computes the sqrt(n) blocks exactly as the protocol does
// and fills the budget with complete groups (plus a partial one).
func NewGroupKiller(n, t int) *GroupKiller {
	// The decomposition is consecutive blocks; corrupting ids 0..t-1
	// annihilates floor(t/⌈sqrt n⌉) whole groups and wounds one more.
	return &GroupKiller{targets: firstK(t)}
}

// Name implements sim.Adversary.
func (g *GroupKiller) Name() string { return "group-killer" }

// Step implements sim.Adversary.
func (g *GroupKiller) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 {
		act.Corrupt = g.targets
	}
	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, true)
	return act
}

// HalfVisibility keeps corrupted processes talking to one half of the
// network and silent toward the other, so different processes count
// different candidate values — the attack motivating the paper's
// requirement that counts at operative processes differ only by the number
// of newly inoperative processes.
type HalfVisibility struct {
	t int
}

// NewHalfVisibility returns the strategy.
func NewHalfVisibility(t int) *HalfVisibility { return &HalfVisibility{t: t} }

// Name implements sim.Adversary.
func (h *HalfVisibility) Name() string { return "half-visibility" }

// Step implements sim.Adversary.
func (h *HalfVisibility) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 && h.t > 0 {
		// Spread the corruptions across the id space so that several
		// groups host a two-faced member.
		stride := maxInt(1, v.N/h.t)
		for p := 0; p < v.N && len(act.Corrupt) < minInt(h.t, v.T); p += stride {
			act.Corrupt = append(act.Corrupt, p)
		}
	}
	bad := corruptedSet(v, act.Corrupt)
	for i, m := range v.Outbox {
		if bad[m.From] && m.To < v.N/2 {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

// SplitVote is the full-information biased-majority attack: it corrupts
// processes from both input camps and, every round, silences the corrupted
// holders of whichever candidate value currently leads among operative
// processes, trying to pin the system inside Figure 3's coin-flip zone.
type SplitVote struct {
	t   int
	rnd *rand.Rand
}

// NewSplitVote returns the strategy.
func NewSplitVote(t int, seed uint64) *SplitVote {
	return &SplitVote{t: t, rnd: rng.Unmetered(seed, 0x5b17)}
}

// Name implements sim.Adversary.
func (s *SplitVote) Name() string { return "split-vote" }

// Step implements sim.Adversary.
func (s *SplitVote) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 && s.t > 0 {
		// Half the budget on each input camp, favoring balance.
		var zeros, ones []int
		for p, in := range v.Inputs {
			if in == 0 {
				zeros = append(zeros, p)
			} else {
				ones = append(ones, p)
			}
		}
		budget := minInt(s.t, v.T)
		for i := 0; i < budget; i++ {
			if i%2 == 0 && len(ones) > 0 {
				act.Corrupt = append(act.Corrupt, ones[0])
				ones = ones[1:]
			} else if len(zeros) > 0 {
				act.Corrupt = append(act.Corrupt, zeros[0])
				zeros = zeros[1:]
			} else if len(ones) > 0 {
				act.Corrupt = append(act.Corrupt, ones[0])
				ones = ones[1:]
			}
		}
	}
	bad := corruptedSet(v, act.Corrupt)

	// Full information: count candidate bits among operative processes.
	ones, zeros := 0, 0
	for p, snap := range v.Snapshots {
		o, ok := observe(snap)
		if !ok || !o.IsOperative() || v.Terminated[p] {
			continue
		}
		if o.CandidateBit() == 1 {
			ones++
		} else {
			zeros++
		}
	}
	leading := 0
	if ones > zeros {
		leading = 1
	}
	for i, m := range v.Outbox {
		if !bad[m.From] {
			continue
		}
		o, ok := observe(v.Snapshots[m.From])
		if ok && o.CandidateBit() == leading {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

// DelayedStrike husbands its budget: it watches the execution and corrupts
// only when a process is about to announce a decision (the line-14
// broadcast), silencing the announcement. It probes the safety-rule
// machinery of lines 14-16 and the fallback path.
type DelayedStrike struct {
	t int
}

// NewDelayedStrike returns the strategy.
func NewDelayedStrike(t int) *DelayedStrike { return &DelayedStrike{t: t} }

// Name implements sim.Adversary.
func (d *DelayedStrike) Name() string { return "delayed-strike" }

// Step implements sim.Adversary.
func (d *DelayedStrike) Step(v *sim.View) sim.Action {
	var act sim.Action
	budget := minInt(d.t, v.T)
	spent := 0
	for _, c := range v.Corrupted {
		if c {
			spent++
		}
	}
	// Corrupt the earliest deciders the moment they mark decided.
	var deciders []int
	for p, snap := range v.Snapshots {
		if v.Corrupted[p] || v.Terminated[p] {
			continue
		}
		if o, ok := observe(snap); ok && o.HasDecided() {
			deciders = append(deciders, p)
		}
	}
	sort.Ints(deciders)
	for _, p := range deciders {
		if spent >= budget {
			break
		}
		act.Corrupt = append(act.Corrupt, p)
		spent++
	}
	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, false)
	return act
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
