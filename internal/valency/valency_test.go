package valency

import (
	"fmt"
	"testing"
)

func TestValidityEdgesAreUnivalent(t *testing.T) {
	for _, n := range []int{3, 4} {
		a := NewAnalyzer(Majority(2), n, 0)
		zeros := make([]int, n)
		if v := a.Classify(zeros); v != ZeroValent {
			t.Fatalf("n=%d all-zero inputs: %v", n, v)
		}
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		if v := a.Classify(ones); v != OneValent {
			t.Fatalf("n=%d all-one inputs: %v", n, v)
		}
	}
}

// TestFaultFreeMajorityIsDetermined: without a corrupted process there is
// exactly one execution, so every assignment is univalent.
func TestFaultFreeMajorityIsDetermined(t *testing.T) {
	n := 3
	a := NewAnalyzer(Majority(1), n, -1)
	for mask := 0; mask < 1<<n; mask++ {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = (mask >> i) & 1
		}
		if v := a.Classify(inputs); v == Bivalent {
			t.Fatalf("inputs %v bivalent without faults", inputs)
		}
	}
}

// TestOmissionsCreateBivalence is the computational core of Lemma 13: with
// one corrupted process, some input assignment lets the adversary steer
// the majority protocol to either decision.
func TestOmissionsCreateBivalence(t *testing.T) {
	n := 3
	a := NewAnalyzer(Majority(1), n, 1)
	inputs := []int{1, 1, 0}
	d := a.ReachableDecisions(inputs)
	if !d[0] || !d[1] {
		t.Fatalf("inputs %v with corrupted 1: reachable = %v, want both", inputs, d)
	}
	if v := a.Classify(inputs); v != Bivalent {
		t.Fatalf("classify = %v", v)
	}
}

// TestLemma13WitnessExists verifies the lemma's statement on the toy
// protocols: walking the input chain finds a bivalent assignment or a
// pivotal 0/1-valent neighbor pair, for every choice of corrupted process.
func TestLemma13WitnessExists(t *testing.T) {
	for _, n := range []int{3, 4} {
		for corrupted := 0; corrupted < n; corrupted++ {
			for _, rounds := range []int{1, 2} {
				a := NewAnalyzer(Majority(rounds), n, corrupted)
				inputs, pivot, found := a.Lemma13Witness()
				if !found {
					t.Fatalf("n=%d corrupted=%d rounds=%d: no Lemma 13 witness", n, corrupted, rounds)
				}
				if pivot < 0 || pivot >= n {
					t.Fatalf("bad pivot %d", pivot)
				}
				if len(inputs) != n {
					t.Fatalf("bad witness %v", inputs)
				}
			}
		}
	}
}

// TestMoreRoundsShrinkBivalence: extra rounds of majority flooding resolve
// some (not necessarily all) ambiguity — the count of bivalent assignments
// must not grow with the round budget.
func TestMoreRoundsShrinkBivalence(t *testing.T) {
	n := 3
	count := func(rounds int) int {
		a := NewAnalyzer(Majority(rounds), n, 1)
		c := 0
		for mask := 0; mask < 1<<n; mask++ {
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = (mask >> i) & 1
			}
			if a.Classify(inputs) == Bivalent {
				c++
			}
		}
		return c
	}
	if c1, c3 := count(1), count(3); c3 > c1 {
		t.Fatalf("bivalent assignments grew with rounds: %d -> %d", c1, c3)
	}
}

func TestValenceString(t *testing.T) {
	if ZeroValent.String() != "0-valent" || OneValent.String() != "1-valent" || Bivalent.String() != "bivalent" {
		t.Fatal("bad Valence strings")
	}
	if s := Valence(9).String(); s != "valence(9)" {
		t.Fatalf("unknown valence: %q", s)
	}
}

func ExampleAnalyzer_Classify() {
	a := NewAnalyzer(Majority(1), 3, 1)
	fmt.Println(a.Classify([]int{0, 0, 0}))
	fmt.Println(a.Classify([]int{1, 1, 0}))
	// Output:
	// 0-valent
	// bivalent
}
