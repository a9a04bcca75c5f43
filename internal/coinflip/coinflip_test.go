package coinflip

import (
	"math"
	"testing"

	"omicon/internal/trace"
)

func TestMajorityGameOutcome(t *testing.T) {
	g := MajorityGame(5)
	if g.F([]int{1, 1, 1, 0, 0}) != 1 {
		t.Fatal("majority of ones must output 1")
	}
	if g.F([]int{0, 0, 0, 1, 1}) != 0 {
		t.Fatal("majority of zeros must output 0")
	}
	if g.F([]int{1, 0, Hidden, Hidden, Hidden}) != 1 {
		t.Fatal("tie must output 1 (ones >= zeros)")
	}
}

func TestThresholdGame(t *testing.T) {
	g := ThresholdGame(4, 2)
	if g.F([]int{1, 1, 0, 0}) != 1 || g.F([]int{1, 0, 0, 0}) != 0 {
		t.Fatal("threshold game broken")
	}
	if g.F([]int{1, Hidden, 1, Hidden}) != 1 {
		t.Fatal("hidden values must not count")
	}
}

func TestGreedyBiasFlipsMajority(t *testing.T) {
	g := MajorityGame(6)
	values := []int{1, 1, 1, 1, 0, 0} // outputs 1
	hidden, ok := GreedyBias(g, values, 0, 3)
	if !ok {
		t.Fatal("budget 3 must suffice to flip a margin-2 majority")
	}
	if hidden > 3 {
		t.Fatalf("hidden %d > budget", hidden)
	}
	if g.F(values) != 0 {
		t.Fatal("outcome not flipped")
	}
}

func TestGreedyBiasAlreadyBiased(t *testing.T) {
	g := MajorityGame(4)
	values := []int{1, 1, 1, 1}
	hidden, ok := GreedyBias(g, values, 1, 0)
	if !ok || hidden != 0 {
		t.Fatal("no hiding needed when outcome already matches")
	}
}

func TestGreedyBiasBudgetExhausted(t *testing.T) {
	g := MajorityGame(10)
	values := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 0} // margin 8
	_, ok := GreedyBias(g, values, 0, 2)
	if ok {
		t.Fatal("budget 2 cannot flip a margin-8 majority")
	}
}

func TestBudgetFormula(t *testing.T) {
	// 8*sqrt(k*log2(1/alpha)).
	k, alpha := 100, 0.25
	want := int(math.Ceil(8 * math.Sqrt(float64(k)*2)))
	if got := Budget(k, alpha); got != want {
		t.Fatalf("Budget = %d, want %d", got, want)
	}
	if Budget(0, 0.5) != 0 || Budget(10, 0) != 0 || Budget(10, 1) != 0 {
		t.Fatal("degenerate budgets must be 0")
	}
}

// TestLemma12Empirical is the reproduction of Lemma 12: with the
// prescribed hiding budget the majority game is biased toward each
// outcome with probability at least 1 - alpha.
func TestLemma12Empirical(t *testing.T) {
	const trials = 2000
	for _, k := range []int{16, 64, 256} {
		for _, alpha := range []float64{0.5, 0.25, 0.1} {
			budget := Budget(k, alpha)
			for _, v := range []int{0, 1} {
				res := Experiment(MajorityGame(k), v, budget, trials, 77)
				if rate := res.SuccessRate(); rate < 1-alpha {
					t.Fatalf("k=%d alpha=%.2f v=%d: success %.3f < %.3f",
						k, alpha, v, rate, 1-alpha)
				}
			}
		}
	}
}

// TestBiasNeedsSqrtK: with budget far below sqrt(k), biasing toward a
// fixed outcome must fail noticeably often — the converse direction that
// makes the sqrt(k log 1/alpha) budget tight in shape.
func TestBiasNeedsSqrtK(t *testing.T) {
	const k, trials = 400, 2000
	res := Experiment(MajorityGame(k), 0, 1, trials, 3)
	if rate := res.SuccessRate(); rate > 0.75 {
		t.Fatalf("budget 1 biased a %d-player game with rate %.3f", k, rate)
	}
}

func TestMinBudgetForGrowsWithK(t *testing.T) {
	b16 := MinBudgetFor(16, 0.9, 400, 5)
	b256 := MinBudgetFor(256, 0.9, 400, 5)
	if b256 <= b16 {
		t.Fatalf("budget must grow with k: %d vs %d", b16, b256)
	}
	// Shape: roughly sqrt growth, so quadrupling k should far less than
	// quadruple the budget. (16x the players, expect ~4x budget.)
	if b256 > 10*b16 {
		t.Fatalf("budget grew superlinearly: %d vs %d", b16, b256)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	a := Experiment(MajorityGame(64), 1, 10, 200, 9)
	b := Experiment(MajorityGame(64), 1, 10, 200, 9)
	if a != b {
		t.Fatal("Experiment must be deterministic per seed")
	}
}

func TestTracedExperimentEmitsTrials(t *testing.T) {
	capture := &trace.Capture{}
	res := TracedExperiment(MajorityGame(32), 1, 8, 100, 3, trace.New(capture))
	if len(capture.Events()) != 100 {
		t.Fatalf("got %d events, want one per trial (100)", len(capture.Events()))
	}
	forced := 0
	for _, e := range capture.Events() {
		if e.Kind != trace.KindCoinTrial {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		if e.Value == 1 {
			forced++
		}
	}
	if forced != res.Successes {
		t.Fatalf("trace shows %d forced trials, result says %d", forced, res.Successes)
	}
	if got := TracedExperiment(MajorityGame(32), 1, 8, 100, 3, nil); got != res {
		t.Fatal("nil tracer must not change the experiment outcome")
	}
}
