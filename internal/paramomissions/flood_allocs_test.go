//go:build !race

package paramomissions

import (
	"math"
	"testing"

	"omicon/internal/sim"
)

// TestFloodStageAllocs pins what one flooding stage (lines 9-12)
// allocates per process at n=64 without faults: one boxing of the round's
// FloodMsg per round and nothing else. Differencing whole Consensus runs
// with stages of F and 2F rounds isolates x extra stages of F rounds at
// every process from the inner consensus, the safety round and the
// engine's setup. Excluded under -race: the detector's instrumentation
// allocates on its own behalf.
func TestFloodStageAllocs(t *testing.T) {
	const n, x = 64, 4
	base, err := Prepare(n, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	f := base.FloodRounds
	run := func(floodRounds int) float64 {
		p, err := Prepare(n, 0, x, WithFloodRounds(floodRounds))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(sim.Config{N: n, T: 0, Inputs: mixedInputs(n, n/2), Seed: 1}, Protocol(p)); err != nil {
				t.Fatal(err)
			}
		})
	}
	per := (run(2*f) - run(f)) / (n * x)
	if want := float64(f); math.Abs(per-want) > 0.5 {
		t.Errorf("flood stage of %d rounds: %.2f allocs per process, want %v (one boxing per round)", f, per, want)
	}
}
