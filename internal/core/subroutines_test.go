package core

import (
	"math"
	"testing"

	"omicon/internal/adversary"
	"omicon/internal/sim"
)

// TestAggregationFaultFreeExactCounts: with no faults, every process's root
// counts equal the exact numbers of ones and zeros in the group
// (Lemma 1 in the strongest form).
func TestAggregationFaultFreeExactCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 31} {
		for _, ones := range []int{0, n / 3, n / 2, n} {
			rep, err := RunAggregationExperiment(mixedInputs(n, ones), nil, 3)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for p := 0; p < n; p++ {
				if !rep.Operative[p] {
					t.Fatalf("n=%d: process %d inoperative without faults", n, p)
				}
				if rep.Ones[p] != ones || rep.Zeros[p] != n-ones {
					t.Fatalf("n=%d ones=%d: process %d counted (%d,%d)",
						n, ones, p, rep.Ones[p], rep.Zeros[p])
				}
			}
		}
	}
}

// TestAggregationLemma1UnderSilencing: silencing processes (the scripted
// "process c" of Figure 2) must still leave every pair of operative
// survivors with counts that (a) include every operative survivor and
// (b) differ by at most the number of processes that lost operative status.
func TestAggregationLemma1UnderSilencing(t *testing.T) {
	n := 16
	silenced := []int{2, 9}
	rep, err := RunAggregationExperiment(mixedInputs(n, 7), adversary.NewStaticCrash(silenced), 5)
	if err != nil {
		t.Fatal(err)
	}
	inoperative := 0
	for p := 0; p < n; p++ {
		if !rep.Operative[p] {
			inoperative++
		}
	}
	survivors := n - inoperative
	for p := 0; p < n; p++ {
		if !rep.Operative[p] {
			continue
		}
		total := rep.Ones[p] + rep.Zeros[p]
		if total < survivors {
			t.Fatalf("process %d total %d < operative survivors %d (a survivor was not counted)",
				p, total, survivors)
		}
		for q := p + 1; q < n; q++ {
			if !rep.Operative[q] {
				continue
			}
			diff := absInt(rep.Ones[p] + rep.Zeros[p] - rep.Ones[q] - rep.Zeros[q])
			if diff > inoperative {
				t.Fatalf("counts at %d and %d differ by %d > %d inoperative",
					p, q, diff, inoperative)
			}
		}
	}
}

// TestAggregationLemma2BitBound: a single group of sqrt(n) processes uses
// O(n log^2 n) bits — we check the concrete constant stays sane across
// sizes (the shape, not the constant, is the claim).
func TestAggregationLemma2BitBound(t *testing.T) {
	for _, size := range []int{8, 16, 32} {
		rep, err := RunAggregationExperiment(mixedInputs(size, size/2), nil, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := size * size // group of size sqrt(n) corresponds to system n
		lg := math.Log2(float64(n))
		bound := 24 * float64(n) * lg * lg
		if float64(rep.Metrics.CommBits) > bound {
			t.Fatalf("group size %d used %d bits > %0.f (n log^2 n envelope)",
				size, rep.Metrics.CommBits, bound)
		}
	}
}

// TestSpreadingFaultFreeAllGroupsKnown: every process learns every group's
// counts and sums them exactly (Lemma 6/8 fault-free form).
func TestSpreadingFaultFreeAllGroupsKnown(t *testing.T) {
	p, err := Prepare(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Decomp.NumGroups()
	groupOnes := make([]int, g)
	groupZeros := make([]int, g)
	wantOnes, wantZeros := 0, 0
	for i := 0; i < g; i++ {
		groupOnes[i] = i
		groupZeros[i] = 2 * i
		wantOnes += i
		wantZeros += 2 * i
	}
	rep, err := RunSpreadingExperiment(p, groupOnes, groupZeros, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < p.N; q++ {
		if !rep.Operative[q] {
			t.Fatalf("process %d inoperative without faults", q)
		}
		if rep.Ones[q] != wantOnes || rep.Zeros[q] != wantZeros {
			t.Fatalf("process %d summed (%d,%d), want (%d,%d)",
				q, rep.Ones[q], rep.Zeros[q], wantOnes, wantZeros)
		}
	}
}

// TestSpreadingSurvivesCrashes checks the Lemma 6/8 property of the
// operative flood, under crashes and under links cut at random in
// different rounds: every process that stays operative learns the counts
// of every group that keeps an operative member, and at least n-3t
// processes stay operative. Group g's ones count is 1<<g, so a process's
// summed ones name the groups it learned.
func TestSpreadingSurvivesCrashes(t *testing.T) {
	p, err := Prepare(96, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Decomp.NumGroups()
	groupOnes := make([]int, g)
	groupZeros := make([]int, g)
	for i := 0; i < g; i++ {
		groupOnes[i] = 1 << i
		groupZeros[i] = 1
	}
	for _, tc := range []struct {
		name string
		t    int
		adv  sim.Adversary
	}{
		{"static-crash", 3, adversary.NewStaticCrash([]int{0, 17, 55})},
		{"random-omission", 8, adversary.NewRandomOmission(8, 0.3, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunSpreadingExperiment(p, groupOnes, groupZeros, tc.adv, 11)
			if err != nil {
				t.Fatal(err)
			}
			operative, sources := 0, 0
			for q := 0; q < p.N; q++ {
				if rep.Operative[q] {
					operative++
					sources |= 1 << p.Decomp.GroupOf(q)
				}
			}
			if operative < p.N-3*tc.t {
				t.Fatalf("operative %d < n-3t = %d (Lemma 7 analogue)", operative, p.N-3*tc.t)
			}
			if sources != 1<<g-1 {
				t.Fatalf("groups %b keep no operative member; the row checks nothing for them", 1<<g-1&^sources)
			}
			for q := 0; q < p.N; q++ {
				if rep.Operative[q] && (rep.Ones[q] != sources || rep.Zeros[q] != g) {
					t.Fatalf("operative %d learned groups %b (%d zeros), want %b (%d)", q, rep.Ones[q], rep.Zeros[q], sources, g)
				}
			}
		})
	}
}

// TestLemma7OperativeFloor runs the full protocol against every portfolio
// strategy and asserts the n-3t operative floor via the engine's final
// snapshots — indirectly, through successful consensus plus the decision
// broadcast reaching everyone, and directly through spread experiments
// above. Here we check the end-to-end consequence: non-faulty processes
// always decide (termination), which Lemma 7 underpins.
func TestLemma7OperativeFloor(t *testing.T) {
	n, tf := 64, 2
	p, err := Prepare(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range adversary.Registry(n, tf, 21) {
		res, err := sim.Run(sim.Config{N: n, T: tf, Inputs: mixedInputs(n, n/2), Seed: 13, Adversary: adv}, Protocol(p))
		if err != nil {
			t.Fatalf("%s: %v", adv.Name(), err)
		}
		for q := 0; q < n; q++ {
			if !res.Corrupted[q] && res.Decisions[q] < 0 {
				t.Fatalf("%s: non-faulty %d undecided", adv.Name(), q)
			}
		}
	}
}

// TestFigure3ThresholdMap pins the voting rule of lines 9-12 (Figure 3):
// for each count profile, which action a process takes.
func TestFigure3ThresholdMap(t *testing.T) {
	cases := []struct {
		ones, zeros int
		wantB       int // -1 = coin
		wantDecided bool
	}{
		{0, 30, 0, true},    // 0/30 < 3/30: decide 0
		{2, 28, 0, true},    // 2/30 < 3/30: decide 0
		{3, 27, 0, false},   // 3/30: set 0, not decided
		{14, 16, 0, false},  // < 15/30: set 0
		{15, 15, -1, false}, // [15/30, 18/30]: coin
		{17, 13, -1, false}, // still coin zone
		{18, 12, -1, false}, // exactly 18/30: NOT > 18/30, coin
		{19, 11, 1, false},  // > 18/30: set 1
		{27, 3, 1, false},   // exactly 27/30: not decided yet
		{28, 2, 1, true},    // > 27/30: decide 1
		{30, 0, 1, true},    // unanimous
	}
	for _, c := range cases {
		total := c.ones + c.zeros
		var b int
		coin := false
		switch {
		case thresholdDenom*c.ones > thresholdHigh*total:
			b = 1
		case thresholdDenom*c.ones < thresholdLow*total:
			b = 0
		default:
			coin = true
		}
		decided := thresholdDenom*c.ones > decideHigh*total || thresholdDenom*c.ones < decideLow*total
		if c.wantB == -1 {
			if !coin {
				t.Fatalf("ones=%d zeros=%d: want coin, got b=%d", c.ones, c.zeros, b)
			}
		} else if coin || b != c.wantB {
			t.Fatalf("ones=%d zeros=%d: got b=%d coin=%v, want b=%d", c.ones, c.zeros, b, coin, c.wantB)
		}
		if decided != c.wantDecided {
			t.Fatalf("ones=%d zeros=%d: decided=%v, want %v", c.ones, c.zeros, decided, c.wantDecided)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
