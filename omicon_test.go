package omicon_test

import (
	"fmt"
	"testing"

	"omicon"
)

func TestSolveOptimalOmissions(t *testing.T) {
	n := 64
	res, err := omicon.Solve(omicon.Config{
		N: n, T: 2,
		Inputs:    omicon.MixedInputs(n, n/2),
		Seed:      1,
		Adversary: omicon.SplitVote(2, 1),
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := res.CheckConsensus(); err != nil {
		t.Fatalf("consensus: %v", err)
	}
	if _, err := res.Decision(); err != nil {
		t.Fatalf("decision: %v", err)
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	n := 64
	for _, algo := range []omicon.Algorithm{
		omicon.OptimalOmissions, omicon.ParamOmissions, omicon.BenOr,
		omicon.PhaseKing, omicon.EarlyStopping, omicon.FloodSet, omicon.DolevStrong,
	} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			res, err := omicon.Solve(omicon.Config{
				N: n, T: 1,
				Algorithm: algo,
				Inputs:    omicon.AlternatingInputs(n),
				Seed:      7,
			})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := res.CheckConsensus(); err != nil {
				t.Fatalf("consensus: %v", err)
			}
		})
	}
}

func TestInstanceReuse(t *testing.T) {
	inst, err := omicon.NewInstance(omicon.Config{N: 64, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		res, err := inst.Run(omicon.RandomInputs(64, seed), seed, omicon.GroupKiller(64, 2))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.CheckConsensus(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestValidityFastPathAcrossAlgorithms(t *testing.T) {
	// Unanimous inputs must decide that value and (for the randomized
	// algorithms) consume zero random bits — the Theorem 5 validity
	// argument.
	for _, algo := range []omicon.Algorithm{omicon.OptimalOmissions, omicon.ParamOmissions, omicon.BenOr} {
		for _, b := range []int{0, 1} {
			res, err := omicon.Solve(omicon.Config{
				N: 64, T: 1, Algorithm: algo,
				Inputs: omicon.UnanimousInputs(64, b), Seed: 5,
			})
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			d, err := res.Decision()
			if err != nil || d != b {
				t.Fatalf("%v: decision %d (%v), want %d", algo, d, err, b)
			}
			if res.Metrics.RandomCalls != 0 {
				t.Fatalf("%v: unanimous run used randomness", algo)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := omicon.Solve(omicon.Config{N: 64, T: 10, Inputs: omicon.UnanimousInputs(64, 0)}); err == nil {
		t.Fatal("t >= n/30 must be rejected for OptimalOmissions")
	}
	if _, err := omicon.Solve(omicon.Config{N: 64, T: 1, Inputs: []int{1}}); err == nil {
		t.Fatal("input length mismatch must be rejected")
	}
	if _, err := omicon.NewInstance(omicon.Config{N: 64, T: 1, Algorithm: omicon.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm must be rejected")
	}
	// AllowLargeT lifts the guard.
	if _, err := omicon.NewInstance(omicon.Config{N: 64, T: 10, AllowLargeT: true}); err != nil {
		t.Fatalf("AllowLargeT: %v", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]omicon.Algorithm{
		"optimal":           omicon.OptimalOmissions,
		"optimal-omissions": omicon.OptimalOmissions,
		"param":             omicon.ParamOmissions,
		"benor":             omicon.BenOr,
		"phaseking":         omicon.PhaseKing,
	} {
		got, err := omicon.ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := omicon.ParseAlgorithm("raft"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestInputHelpers(t *testing.T) {
	if got := omicon.UnanimousInputs(4, 1); got[0] != 1 || got[3] != 1 {
		t.Fatalf("UnanimousInputs = %v", got)
	}
	if got := omicon.MixedInputs(4, 2); got[0]+got[1]+got[2]+got[3] != 2 {
		t.Fatalf("MixedInputs = %v", got)
	}
	if got := omicon.AlternatingInputs(4); got[0] != 0 || got[1] != 1 {
		t.Fatalf("AlternatingInputs = %v", got)
	}
	a := omicon.RandomInputs(64, 1)
	b := omicon.RandomInputs(64, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomInputs must be deterministic per seed")
		}
	}
}

func TestEclipseOn(t *testing.T) {
	inst, err := omicon.NewInstance(omicon.Config{N: 64, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	adv := omicon.EclipseOn(inst, 6)
	if adv == nil {
		t.Fatal("EclipseOn returned nil for an optimal-omissions instance")
	}
	res, err := inst.Run(omicon.MixedInputs(64, 32), 3, adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsensus(); err != nil {
		t.Fatal(err)
	}
	// Non-core algorithms have no prepared graph.
	benorInst, err := omicon.NewInstance(omicon.Config{N: 64, T: 2, Algorithm: omicon.BenOr})
	if err != nil {
		t.Fatal(err)
	}
	if omicon.EclipseOn(benorInst, 6) != nil {
		t.Fatal("EclipseOn must return nil for non-core instances")
	}
}

func TestRunProtocolEscapeHatch(t *testing.T) {
	res, err := omicon.RunProtocol(8, 0, omicon.UnanimousInputs(8, 1), 1, nil,
		func(env omicon.Env, input int) (int, error) {
			env.Exchange(nil)
			return input, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := res.Decision(); err != nil || d != 1 {
		t.Fatalf("decision %d, %v", d, err)
	}
}

func TestSolveValues(t *testing.T) {
	n := 36
	values := make([][]byte, n)
	for i := range values {
		values[i] = []byte{byte(i)}
	}
	res, err := omicon.SolveValues(omicon.Config{
		N: n, T: 1, Seed: 4,
		Adversary: omicon.StaticCrash([]int{0}),
	}, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckValidity(values); err != nil {
		t.Fatal(err)
	}
	if _, err := omicon.SolveValues(omicon.Config{N: n, T: 1}, values[:3]); err == nil {
		t.Fatal("value-count mismatch must be rejected")
	}
}

func TestInstanceDescribe(t *testing.T) {
	inst, err := omicon.NewInstance(omicon.Config{N: 64, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := inst.Describe()
	for _, want := range []string{"optimal-omissions", "n=64", "epochs=", "graphDelta="} {
		if !contains(d, want) {
			t.Fatalf("Describe() = %q missing %q", d, want)
		}
	}
	pinst, err := omicon.NewInstance(omicon.Config{N: 64, T: 1, Algorithm: omicon.ParamOmissions, X: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(pinst.Describe(), "x=4") {
		t.Fatalf("Describe() = %q", pinst.Describe())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func ExampleSolve() {
	res, err := omicon.Solve(omicon.Config{
		N: 64, T: 2,
		Inputs: omicon.UnanimousInputs(64, 1),
		Seed:   1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	d, _ := res.Decision()
	fmt.Println("decision:", d)
	// Output: decision: 1
}
