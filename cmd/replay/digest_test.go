package main

import (
	"strings"
	"testing"

	"omicon/internal/adversary"
	"omicon/internal/benor"
	"omicon/internal/sim"
)

func synthetic() *sim.Transcript {
	return &sim.Transcript{
		N: 4, T: 1,
		Rounds: []sim.RoundRecord{
			{Round: 1, Messages: 12, Bits: 120, Corrupted: []int{2}, Dropped: 3},
			{Round: 2, Messages: 12, Bits: 120, Dropped: 6},
			{Round: 3, Messages: 2, Bits: 20, Decided: 3},
			{Round: 4, Messages: 2, Bits: 20, Decided: 4, Terminated: 4},
		},
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	s := analyze(synthetic())
	if s.Rounds != 4 || s.Messages != 28 || s.Bits != 280 {
		t.Fatalf("totals: %+v", s)
	}
	if s.Dropped != 9 || s.PeakDropRound != 2 || s.PeakDropCount != 6 {
		t.Fatalf("drops: %+v", s)
	}
	if len(s.Corruptions) != 1 || s.Corruptions[0].Process != 2 || s.Corruptions[0].Round != 1 {
		t.Fatalf("corruptions: %+v", s.Corruptions)
	}
	if s.FirstDecision != 3 {
		t.Fatalf("first decision = %d", s.FirstDecision)
	}
	if s.AllTerminated != 4 {
		t.Fatalf("all terminated = %d", s.AllTerminated)
	}
	// Two activity levels: 12-ish then 2-ish.
	if len(s.ActivityPhases) != 2 {
		t.Fatalf("phases: %+v", s.ActivityPhases)
	}
	if s.ActivityPhases[0].From != 1 || s.ActivityPhases[0].To != 2 {
		t.Fatalf("phase 0: %+v", s.ActivityPhases[0])
	}
}

func TestAnalyzeNil(t *testing.T) {
	s := analyze(nil)
	if s.Rounds != 0 || s.FirstDecision != -1 {
		t.Fatalf("nil transcript: %+v", s)
	}
	if rep := s.report(); !strings.Contains(rep, "all terminated  : not observed in-transcript") {
		t.Fatalf("report of an empty digest:\n%s", rep)
	}
}

func TestReportRenders(t *testing.T) {
	rep := analyze(synthetic()).report()
	for _, want := range []string{"rounds", "omissions", "corruptions", "first decision  : round 3", "all terminated  : round 4", "activity phases"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestAnalyzeRealExecution records a live run and sanity-checks the
// digest against the result's metrics.
func TestAnalyzeRealExecution(t *testing.T) {
	n := 24
	rec, tr := sim.NewRecorder(adversary.NewCoinHider(1))
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i % 2
	}
	res, err := sim.Run(sim.Config{N: n, T: 6, Inputs: inputs, Seed: 4, Adversary: rec},
		benor.Protocol(benor.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	s := analyze(tr)
	if int64(s.Rounds) != res.Metrics.Rounds {
		t.Fatalf("rounds: digest %d vs metrics %d", s.Rounds, res.Metrics.Rounds)
	}
	if int64(s.Messages) != res.Metrics.Messages {
		t.Fatalf("messages: digest %d vs metrics %d", s.Messages, res.Metrics.Messages)
	}
	if int64(s.Bits) != res.Metrics.CommBits {
		t.Fatalf("bits: digest %d vs metrics %d", s.Bits, res.Metrics.CommBits)
	}
	if len(s.Corruptions) != res.NumCorrupted() {
		t.Fatalf("corruptions: digest %d vs result %d", len(s.Corruptions), res.NumCorrupted())
	}
}
