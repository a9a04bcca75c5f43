package adversary

import (
	"math"

	"omicon/internal/sim"
)

// coinObserver is the extra observation the coin-hiding strategy keys on.
type coinObserver interface {
	FlippedCoin() bool
}

// CoinHider is the Bar-Joseph/Ben-Or-style adaptive strategy behind the
// round lower bound of [10] and, in its parameterized form, behind
// Theorem 2's trade-off. After seeing this round's random draws (full
// information), it corrupts processes holding the currently winning
// candidate value — at most O(sqrt(r_i log n)) + 1 new corruptions in a
// round where r_i processes accessed their random source, exactly the
// per-round budget of Lemmas 14-15 — and then drops corrupted processes'
// value messages selectively, per receiver, so that every receiver counts
// an exact tie and stays inside the coin-flip zone.
//
// The effect on biased-majority protocols is to cancel the coin's
// deviation from the mean every epoch; deciding therefore costs the
// adversary its whole budget, and time-to-decide scales like t divided by
// the per-epoch deviation Theta(sqrt(r_i)), the shape of
// Omega(t / sqrt(n log n)).
type CoinHider struct {
	// Beta scales the per-round corruption budget
	// beta*sqrt(r_i * log2 n) + 1.
	Beta      float64
	lastCalls []int64
}

// NewCoinHider returns the strategy with the paper's budget shape.
func NewCoinHider(beta float64) *CoinHider {
	if beta <= 0 {
		beta = 1
	}
	return &CoinHider{Beta: beta}
}

// Name implements sim.Adversary.
func (c *CoinHider) Name() string { return "coin-hider" }

// Step implements sim.Adversary.
func (c *CoinHider) Step(v *sim.View) sim.Action {
	if c.lastCalls == nil {
		c.lastCalls = make([]int64, v.N)
	}
	// r_i: how many processes accessed their random source since the
	// previous communication phase.
	flips := 0
	for p := 0; p < v.N; p++ {
		if v.RandomCalls[p] > c.lastCalls[p] {
			flips++
		}
		c.lastCalls[p] = v.RandomCalls[p]
	}
	perRound := int(math.Ceil(c.Beta*math.Sqrt(float64(flips)*math.Log2(float64(v.N+1))))) + 1

	spent := 0
	for _, b := range v.Corrupted {
		if b {
			spent++
		}
	}

	// Candidate bits of the live processes, from the published states.
	bits := make([]int, v.N)
	var count [2]int
	for p, snap := range v.Snapshots {
		bits[p] = -1
		if v.Terminated[p] || v.Corrupted[p] {
			// Crashed processes are silent; their bits no longer
			// reach any counter.
			continue
		}
		o, ok := observe(snap)
		if !ok {
			continue
		}
		b := o.CandidateBit()
		if b != 0 && b != 1 {
			continue
		}
		bits[p] = b
		count[b]++
	}
	win := 0
	if count[1] > count[0] {
		win = 1
	}
	margin := count[win] - count[1-win]
	if margin <= 0 {
		// Balanced already — but crashes are permanent, so keep the
		// corrupted processes silent.
		return sim.Action{Drop: dropTouching(v, v.Corrupted, false)}
	}

	// Crash-style rebalancing (the mechanism of [10]'s lower bound, also
	// available to the stronger omission adversary): permanently silence
	// `margin` holders of the winning value, so every receiver again
	// counts an exact tie and stays inside the coin-flip zone. Crashed
	// processes are silent toward everyone, keeping all views uniform.
	var act sim.Action
	newBudget := minInt(perRound, v.T-spent)
	toKill := minInt(margin, newBudget)
	for p := 0; p < v.N && toKill > 0; p++ {
		if !v.Corrupted[p] && bits[p] == win {
			act.Corrupt = append(act.Corrupt, p)
			toKill--
		}
	}
	bad := corruptedSet(v, act.Corrupt)
	act.Drop = dropTouching(v, bad, false)
	return act
}
