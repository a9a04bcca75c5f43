//go:build !race

package core

import (
	"math"
	"testing"

	"omicon/internal/sim"
)

// TestSpreadingEpochAllocs pins what one steady-state GroupBitsSpreading
// epoch allocates per process at n=64 without faults: differencing runs of
// one and three epochs over the same link state leaves the two later
// epochs, with every scratch set already grown, and none of the engine's
// setup. The four are the exact-fit entry slice and its boxing in each of
// the two rounds that carry fresh groups; the empty heartbeat of the later
// rounds boxes a zero value, which allocates nothing.
// Excluded under -race: the detector's instrumentation allocates on its
// own behalf.
func TestSpreadingEpochAllocs(t *testing.T) {
	const n, want = 64, 4
	p, err := Prepare(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := sim.Run(sim.Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1},
				func(env sim.Env, _ int) (int, error) {
					id := env.ID()
					g := p.Decomp.GroupOf(id)
					ls := newLinkState(p, id)
					for e := 0; e < epochs; e++ {
						if _, _, op := groupBitsSpreading(env, p, ls, g, 1, 0); !op {
							t.Errorf("process %d inoperative without faults", id)
						}
					}
					return 0, nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	per := (run(3) - run(1)) / (2 * n)
	if math.Abs(per-want) > 0.5 {
		t.Errorf("steady-state spreading epoch: %.2f allocs per process over %d rounds, want %d", per, p.GossipRounds, want)
	}
}
