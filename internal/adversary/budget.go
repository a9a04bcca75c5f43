package adversary

import (
	"fmt"
	"math"

	"omicon/internal/sim"
)

// BudgetSchedule is the corruption-rate adversary distilled from the
// lower-bound harness: instead of spending its budget in one opening
// burst (SplitVote, Eclipse) or hoarding it reactively (CoinHider), it
// follows the time-driven schedule the Omega(t/sqrt(n log n)) argument
// charges against — by round r it allows itself up to
//
//	ceil(beta * sqrt(r * log2(n+1))) + 1
//
// cumulative corruptions, the same beta*sqrt(r_i log n)+1 shape
// CoinHider's per-epoch budget takes from Lemmas 14-15, but driven by
// the clock rather than by observed coin flips. Within the allowance it
// always corrupts processes holding the current leading candidate value
// (ties to the lower value, then the lowest id) and silences every
// message touching a corrupted process, so the majority side is bled at
// exactly the sustainable rate: fast enough to matter, slow enough that
// round-indexed budget arguments in the proofs are exercised at their
// boundary rather than trivially satisfied or trivially violated.
//
// The strategy is fully deterministic — no seed — so a tournament cell
// against it isolates the protocol's randomness as the only noise
// source.
type BudgetSchedule struct {
	t    int
	beta float64
}

// NewBudgetSchedule returns the schedule-driven strategy with total
// budget t and rate multiplier beta (values <= 0 fall back to 1).
func NewBudgetSchedule(t int, beta float64) *BudgetSchedule {
	if beta <= 0 {
		beta = 1
	}
	return &BudgetSchedule{t: t, beta: beta}
}

// Name implements sim.Adversary.
func (b *BudgetSchedule) Name() string {
	if b.beta == 1 {
		return "budget-schedule"
	}
	return fmt.Sprintf("budget-schedule[beta=%g]", b.beta)
}

// allowance is the cumulative corruption cap as of round r.
func (b *BudgetSchedule) allowance(r, n int) int {
	if r < 1 {
		r = 1
	}
	return int(math.Ceil(b.beta*math.Sqrt(float64(r)*math.Log2(float64(n+1))))) + 1
}

// Step implements sim.Adversary.
func (b *BudgetSchedule) Step(v *sim.View) sim.Action {
	var act sim.Action
	spent := 0
	for _, c := range v.Corrupted {
		if c {
			spent++
		}
	}
	allow := minInt(b.allowance(v.Round, v.N), minInt(b.t, v.T))

	if spent < allow {
		// Tally the live candidate bits to find the leading value.
		bit := func(p int) (int, bool) {
			o, ok := observe(v.Snapshots[p])
			if !ok {
				return 0, false
			}
			return o.CandidateBit(), true
		}
		var count [2]int
		for p := 0; p < v.N; p++ {
			if x, ok := bit(p); ok && (x == 0 || x == 1) && !v.Corrupted[p] {
				count[x]++
			}
		}
		lead := 0
		if count[1] > count[0] {
			lead = 1
		}
		// Corrupt leading-value holders, lowest ids first, then anyone.
		pending := make(map[int]bool)
		for pass := 0; pass < 2 && spent < allow; pass++ {
			for p := 0; p < v.N && spent < allow; p++ {
				if v.Corrupted[p] || pending[p] {
					continue
				}
				x, ok := bit(p)
				if pass == 0 && (!ok || x != lead) {
					continue
				}
				act.Corrupt = append(act.Corrupt, p)
				pending[p] = true
				spent++
			}
		}
	}

	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, true)
	return act
}

var _ sim.Adversary = (*BudgetSchedule)(nil)
