package experiments

import (
	"testing"

	"omicon/internal/benor"
	"omicon/internal/core"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
)

func TestSpreadInputsBalance(t *testing.T) {
	for _, n := range []int{7, 16, 64} {
		for ones := 0; ones <= n; ones += n / 4 {
			in := spreadInputs(n, ones)
			got := 0
			for _, b := range in {
				got += b
			}
			if got != ones {
				t.Fatalf("n=%d ones=%d: got %d", n, ones, got)
			}
		}
	}
}

func TestThm1SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow; run without -short")
	}
	cells, err := Thm1Detailed([]int{64, 128}, 1, 5, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	pts := Worst(cells)
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// Rounds and communication must grow with n.
	if pts[1].Rounds <= pts[0].Rounds {
		t.Fatalf("rounds did not grow: %+v", pts)
	}
	if pts[1].CommBits <= pts[0].CommBits {
		t.Fatalf("commBits did not grow: %+v", pts)
	}
	// The growth exponents must stay below the paper's envelopes
	// (0.5 + polylog slack for rounds, 2 + polylog slack for bits).
	rfit, bfit, err := Thm1Fits(pts)
	if err != nil {
		t.Fatal(err)
	}
	if rfit.Exponent > 1.2 {
		t.Fatalf("rounds exponent %.2f far above sqrt envelope", rfit.Exponent)
	}
	if bfit.Exponent < 1.2 || bfit.Exponent > 2.8 {
		t.Fatalf("commBits exponent %.2f outside quadratic envelope", bfit.Exponent)
	}
}

func TestThm3SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow; run without -short")
	}
	n, tf := 128, 2
	pts, err := Thm3Sweep(n, tf, []int{1, 4, 16}, 1, 3, false, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Rounds grow with x (the Theorem 3 trade-off direction).
	for i := 1; i < len(pts); i++ {
		if pts[i].Rounds <= pts[i-1].Rounds {
			t.Fatalf("rounds not increasing in x: %+v", pts)
		}
	}
	// Randomness at the finest split stays below the coarsest.
	if pts[len(pts)-1].RandBits > pts[0].RandBits {
		t.Fatalf("randomness not reduced by splitting: %+v", pts)
	}
}

func TestThm3SweepSkipsTinyGroups(t *testing.T) {
	pts, err := Thm3Sweep(16, 0, []int{1, 8}, 1, 1, false, Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// x=8 gives groups of 2 (<4): skipped.
	if len(pts) != 1 || pts[0].X != 1 {
		t.Fatalf("got %+v", pts)
	}
}

// TestEpochDynamicsShape pins the Figure 3 curve: zero coins and instant
// unification outside the coin zone, positive coins inside it.
func TestEpochDynamicsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch sweep is slow; run without -short")
	}
	n := 64
	pts, err := EpochDynamics(n, 2, []int{0, n / 4, n / 2, n}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		frac := float64(pt.Ones) / float64(n)
		inZone := frac >= 0.5 && frac <= 0.6
		if inZone {
			if pt.MeanCoins == 0 {
				t.Fatalf("ones=%d: coin zone drew no coins", pt.Ones)
			}
		} else {
			if pt.MeanCoins != 0 {
				t.Fatalf("ones=%d: deterministic zone drew %.1f coins", pt.Ones, pt.MeanCoins)
			}
			if pt.Unified1 != 1 {
				t.Fatalf("ones=%d: deterministic zone unified@1 = %.2f", pt.Ones, pt.Unified1)
			}
		}
	}
}

// TestOperativeSurvivalFloor: the measured operative minimum must respect
// the Lemma 7 floor n-3t at every tested fault load.
func TestOperativeSurvivalFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("survival sweep is slow; run without -short")
	}
	n := 96
	pts, err := OperativeSurvival(n, []int{3, 6, 12}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.MinOperative < pt.Floor {
			t.Fatalf("t=%d: operative %d below the n-3t floor %d", pt.T, pt.MinOperative, pt.Floor)
		}
	}
}

func TestMessageFloor(t *testing.T) {
	n, tf := 64, 2
	cp, err := core.Prepare(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	protocols := map[string]sim.Protocol{
		"optimal": core.Protocol(cp),
		"benor":   benor.Protocol(benor.Params{}),
		"phaseking": func(env sim.Env, input int) (int, error) {
			return phaseking.Consensus(env, input)
		},
	}
	pts, err := MessageFloor(n, tf, 1, 9, protocols, cp.TotalRoundsBound()+4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		// Every protocol sits above the t^2 message floor.
		if pt.PerT2 < 1 {
			t.Fatalf("%s below the t^2 floor: %+v", pt.Algorithm, pt)
		}
	}
}

func TestQuantilesOfNearestRank(t *testing.T) {
	q := QuantilesOf([]int64{5, 1, 4, 2, 3})
	if q.P50 != 3 || q.P90 != 5 || q.Max != 5 {
		t.Fatalf("got %+v", q)
	}
	q = QuantilesOf([]int64{10})
	if q.P50 != 10 || q.P90 != 10 || q.Max != 10 {
		t.Fatalf("singleton: got %+v", q)
	}
	if q := QuantilesOf(nil); q != (Quantiles{}) {
		t.Fatalf("empty: got %+v", q)
	}
}

func TestWorstReduction(t *testing.T) {
	cells := []SweepCell{{
		N: 64, T: 2,
		Samples: []SweepSample{
			{Adversary: "a", Rounds: 10, CommBits: 100, RandBits: 7},
			{Adversary: "b", Rounds: 12, CommBits: 90, RandBits: 9},
			{Adversary: "c", Rounds: 12, CommBits: 95, RandBits: 1},
		},
	}}
	pts := Worst(cells)
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	pt := pts[0]
	// b set rounds=12 first; c ties on rounds but its commBits (95) does
	// not exceed the running max (100), so b keeps the blame.
	if pt.Rounds != 12 || pt.WorstAdversary != "b" {
		t.Fatalf("worst = %+v", pt)
	}
	if pt.CommBits != 100 || pt.RandBits != 9 {
		t.Fatalf("maxima not independent: %+v", pt)
	}
}
