package torture

import (
	"errors"
	"fmt"
	"testing"

	"omicon/internal/metrics"
	"omicon/internal/sim"
)

func cleanResult(n, t int) *sim.Result {
	r := &sim.Result{
		Inputs:       make([]int, n),
		Decisions:    make([]int, n),
		TerminatedAt: make([]int, n),
		Corrupted:    make([]bool, n),
	}
	for p := 0; p < n; p++ {
		r.Inputs[p] = p % 2
		r.Decisions[p] = 1
		r.TerminatedAt[p] = 3
	}
	r.Metrics = metrics.Snapshot{Rounds: 3, Messages: 30, CommBits: 240, RandomBits: 8, RandomCalls: 8}
	return r
}

func cleanTranscript(n, t int) *sim.Transcript {
	return &sim.Transcript{
		Version: sim.TranscriptVersion, N: n, T: t,
		Rounds: []sim.RoundRecord{
			{Round: 1, Messages: 10, Bits: 80},
			{Round: 2, Messages: 10, Bits: 80, Decided: n},
			{Round: 3, Messages: 10, Bits: 80, Decided: n, Terminated: n},
		},
	}
}

func TestOracleCleanRun(t *testing.T) {
	in := CheckInput{N: 4, T: 1, RoundBound: 5, Result: cleanResult(4, 1), Transcript: cleanTranscript(4, 1)}
	if v := Check(in); v.Failed() {
		t.Fatalf("clean run flagged: %v", v.Violations)
	}
}

func TestOracleAgreement(t *testing.T) {
	res := cleanResult(4, 1)
	res.Decisions[2] = 0
	v := Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindAgreement) {
		t.Fatalf("disagreement not flagged: %v", v.Violations)
	}

	// The same disagreement on a Monte Carlo protocol is a counted miss.
	v = Check(CheckInput{N: 4, T: 1, RoundBound: 5, Properties: PropertySet{Agreement: WHP}, Result: res})
	if v.Has(KindAgreement) || v.MonteCarloMisses != 1 {
		t.Fatalf("monte-carlo miss mishandled: %v misses=%d", v.Violations, v.MonteCarloMisses)
	}
}

func TestOracleValidity(t *testing.T) {
	res := cleanResult(4, 1)
	for p := range res.Inputs {
		res.Inputs[p] = 0 // unanimous 0, but everyone decided 1
	}
	v := Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindValidity) {
		t.Fatalf("validity violation not flagged: %v", v.Violations)
	}
}

func TestOracleTermination(t *testing.T) {
	res := cleanResult(4, 1)
	res.TerminatedAt[1] = 9
	v := Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindTermination) {
		t.Fatalf("bound overrun not flagged: %v", v.Violations)
	}

	res = cleanResult(4, 1)
	res.Decisions[0] = -1
	v = Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindTermination) {
		t.Fatalf("undecided non-faulty process not flagged: %v", v.Violations)
	}
}

func TestOracleBudget(t *testing.T) {
	res := cleanResult(4, 1)
	res.Corrupted[0], res.Corrupted[1] = true, true
	v := Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindLegality) {
		t.Fatalf("over-budget result not flagged: %v", v.Violations)
	}
}

func TestOracleRunErrors(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{fmt.Errorf("wrap: %w", sim.ErrBudget), KindLegality},
		{fmt.Errorf("wrap: %w", sim.ErrIllegalOmission), KindLegality},
		{fmt.Errorf("wrap: %w", sim.ErrMaxRounds), KindTermination},
		{errors.New("process 3: internal"), KindProtocol},
	}
	for _, c := range cases {
		v := Check(CheckInput{N: 4, T: 1, RunErr: c.err})
		if !v.Has(c.want) {
			t.Fatalf("error %v classified as %v, want %s", c.err, v.Violations, c.want)
		}
	}
}

func TestOracleMetrics(t *testing.T) {
	res := cleanResult(4, 1)
	res.Metrics.RandomBits = 2 // fewer bits than calls
	v := Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res})
	if !v.Has(KindMetrics) {
		t.Fatalf("metrics inconsistency not flagged: %v", v.Violations)
	}

	res = cleanResult(4, 1)
	v = Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: res,
		Envelope: metrics.Envelope{MaxMessages: 10}})
	if !v.Has(KindMetrics) {
		t.Fatalf("envelope overrun not flagged: %v", v.Violations)
	}
}

func TestOracleTranscript(t *testing.T) {
	mk := func(mut func(*sim.Transcript)) Verdict {
		tr := cleanTranscript(4, 1)
		mut(tr)
		return Check(CheckInput{N: 4, T: 1, RoundBound: 5, Result: cleanResult(4, 1), Transcript: tr})
	}
	cases := map[string]func(*sim.Transcript){
		"count mismatch":    func(tr *sim.Transcript) { tr.Rounds = tr.Rounds[:2] },
		"mislabeled round":  func(tr *sim.Transcript) { tr.Rounds[1].Round = 7 },
		"dropped>messages":  func(tr *sim.Transcript) { tr.Rounds[0].Dropped = 11 },
		"drops!=dropped":    func(tr *sim.Transcript) { tr.Rounds[0].Dropped = 1 },
		"double corruption": func(tr *sim.Transcript) { tr.Rounds[0].Corrupted = []int{2}; tr.Rounds[1].Corrupted = []int{2} },
		"over budget":       func(tr *sim.Transcript) { tr.Rounds[0].Corrupted = []int{0, 2} },
		"regressed decided": func(tr *sim.Transcript) { tr.Rounds[2].Decided = 1 },
		"message sum":       func(tr *sim.Transcript) { tr.Rounds[0].Messages = 9 },
	}
	for name, mut := range cases {
		if v := mk(mut); !v.Has(KindTranscript) {
			t.Fatalf("%s not flagged: %v", name, v.Violations)
		}
	}
}

func TestShrinkToMinimal(t *testing.T) {
	// Schedule with 6 atoms of which exactly one (the corruption of
	// process 2 in round 3) matters; the predicate is "contains it".
	s := sim.Schedule{Rounds: []sim.ScheduleRound{
		{Round: 1, Corrupt: []int{0}, Drops: []sim.Drop{{From: 0, To: 1}, {From: 0, To: 2}}},
		{Round: 3, Corrupt: []int{1, 2}, Drops: []sim.Drop{{From: 1, To: 0}}},
	}}
	contains := func(c sim.Schedule) bool {
		for _, r := range c.Rounds {
			for _, p := range r.Corrupt {
				if r.Round == 3 && p == 2 {
					return true
				}
			}
		}
		return false
	}
	min, runs := Shrink(s, contains, 100)
	if min.NumActions() != 1 {
		t.Fatalf("shrunk to %d actions, want 1 (in %d runs): %+v", min.NumActions(), runs, min)
	}
	if len(min.Rounds) != 1 || min.Rounds[0].Round != 3 || len(min.Rounds[0].Corrupt) != 1 || min.Rounds[0].Corrupt[0] != 2 {
		t.Fatalf("wrong minimal schedule: %+v", min)
	}
}

func TestShrinkRespectsBudget(t *testing.T) {
	s := sim.Schedule{Rounds: []sim.ScheduleRound{{Round: 1, Corrupt: []int{0, 1, 2, 3}}}}
	calls := 0
	min, runs := Shrink(s, func(sim.Schedule) bool { calls++; return false }, 5)
	if runs > 5 || calls > 5 {
		t.Fatalf("shrinker exceeded its replay budget: %d runs", runs)
	}
	if min.NumActions() != 4 {
		t.Fatalf("non-reproducing candidates must not shrink the schedule: %+v", min)
	}
}
