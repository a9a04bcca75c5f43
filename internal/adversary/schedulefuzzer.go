package adversary

import (
	"math/rand/v2"

	"omicon/internal/rng"
	"omicon/internal/sim"
)

// ScheduleFuzzer is the schedule-mutating strategy of the torture harness.
// Where Chaos samples fresh randomness every round with a fixed rate, the
// fuzzer perturbs a *base* schedule — typically one recorded from an
// earlier execution in the same (protocol, adversary) cell or loaded from
// the failure corpus — keeping most of its structure while randomly
// skipping, re-timing and amplifying actions. Mutating known-interesting
// schedules explores the neighborhood of past executions instead of the
// uniform schedule space, which is where delta-debugging theory (and
// coverage-guided fuzzing practice) says the violations live.
//
// With an empty base it degenerates to a bursty generator: unlike Chaos's
// stationary drop rate, it lurches between quiet rounds, moderate
// harassment and near-total blackouts, and occasionally spends several
// corruptions at once — the schedule shapes that defeat protocols tuned to
// gradual fault arrival.
//
// Every emitted action is legal by construction (budget-capped
// corruptions of fresh processes, drops only on corrupted endpoints), so
// the engine never aborts a fuzzing run for legality.
type ScheduleFuzzer struct {
	t    int
	base map[int]sim.ScheduleRound
	rnd  *rand.Rand

	// keepProb is the chance a base action is replayed rather than
	// skipped; burstProb the per-round chance of a spontaneous
	// corruption burst.
	keepProb  float64
	burstProb float64

	// Per-round scratch, reused across Steps: bad is indexed by process
	// id, taken by outbox index, idx holds the base drops' outbox indices.
	bad   []bool
	taken []bool
	match sim.DropMatcher
	idx   []int
}

// NewScheduleFuzzer returns the strategy mutating base (pass a zero
// Schedule for pure generation) under corruption budget t.
func NewScheduleFuzzer(base sim.Schedule, t int, seed uint64) *ScheduleFuzzer {
	f := &ScheduleFuzzer{
		t:         t,
		base:      make(map[int]sim.ScheduleRound, len(base.Rounds)),
		rnd:       rng.Unmetered(seed, 0x5cfd),
		keepProb:  0.85,
		burstProb: 0.25,
	}
	for _, r := range base.Rounds {
		f.base[r.Round] = r
	}
	return f
}

// Name implements sim.Adversary.
func (f *ScheduleFuzzer) Name() string { return "sched-fuzz" }

// Step implements sim.Adversary.
func (f *ScheduleFuzzer) Step(v *sim.View) sim.Action {
	var act sim.Action
	bad := resetMask(f.bad, v.N)
	f.bad = bad
	spent := 0
	for p, c := range v.Corrupted {
		if c {
			bad[p] = true
			spent++
		}
	}
	budget := minInt(f.t, v.T)

	corrupt := func(p int) {
		act.Corrupt = append(act.Corrupt, p)
		bad[p] = true
		spent++
	}

	// Replay the base round's corruptions, each kept with keepProb.
	base, hasBase := f.base[v.Round]
	for _, p := range base.Corrupt {
		if p < 0 || p >= v.N || bad[p] || spent >= budget {
			continue
		}
		if f.rnd.Float64() < f.keepProb {
			corrupt(p)
		}
	}

	// Spontaneous burst: dump 1-3 fresh corruptions at once.
	if spent < budget && f.rnd.Float64() < f.burstProb {
		want := 1 + f.rnd.IntN(3)
		for ; want > 0 && spent < budget; want-- {
			candidates := make([]int, 0, v.N)
			for p := 0; p < v.N; p++ {
				if !bad[p] && !v.Terminated[p] {
					candidates = append(candidates, p)
				}
			}
			if len(candidates) == 0 {
				break
			}
			corrupt(candidates[f.rnd.IntN(len(candidates))])
		}
	}

	// Drops. First replay the base round's drops (matched by
	// sim.DropMatcher, kept with keepProb), then sweep the remaining
	// corrupted-endpoint traffic with a per-round intensity mode.
	taken := resetMask(f.taken, len(v.Outbox))
	f.taken = taken
	if hasBase {
		f.idx = f.match.Match(f.idx[:0], v.Outbox, base.Drops)
		for _, idx := range f.idx {
			if idx < 0 || !bad[v.Outbox[idx].From] && !bad[v.Outbox[idx].To] {
				continue
			}
			if f.rnd.Float64() < f.keepProb {
				act.Drop = append(act.Drop, idx)
				taken[idx] = true
			}
		}
	}
	var sweep float64
	switch mode := f.rnd.Float64(); {
	case mode < 0.35:
		sweep = 0.05 // quiet: let traffic through, probe partial omissions
	case mode < 0.85:
		sweep = 0.5 // harassment
	default:
		sweep = 0.97 // blackout
	}
	for i, m := range v.Outbox {
		if taken[i] || (!bad[m.From] && !bad[m.To]) {
			continue
		}
		if f.rnd.Float64() < sweep {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

// resetMask returns mask resized to n with every entry false, reusing its
// backing array when it is large enough.
func resetMask(mask []bool, n int) []bool {
	if cap(mask) < n {
		return make([]bool, n)
	}
	mask = mask[:n]
	clear(mask)
	return mask
}

var _ sim.Adversary = (*ScheduleFuzzer)(nil)
