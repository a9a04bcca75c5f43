//go:build !race

package transport

import (
	"testing"

	"omicon/internal/floodset"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// TestCoordinatorPhaseZeroAllocs pins the coordinator's communication phase
// — the simulator's kernel plus DELIVER assembly into the reused per-node
// buffers — at zero allocations per steady-state round, like the engine's
// TestEngineSteadyStateZeroAllocs. The outbox is all-to-all at n=16 with
// every send of a corrupted process dropped. Frame reads and payload boxing
// belong to the gather and stay outside the measurement. Excluded under
// -race: the detector's instrumentation allocates on its own behalf.
func TestCoordinatorPhaseZeroAllocs(t *testing.T) {
	const n = 16
	frame := rawPayload(wire.EncodeFrame(nil, floodset.SetMsg{Has0: true}))
	var outbox []sim.Message
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if to != from {
				outbox = append(outbox, sim.Msg(from, to, frame))
			}
		}
	}
	// Process 0's sends lead the canonical order.
	act := sim.Action{Corrupt: []int{0}}
	for i := 0; i < n-1; i++ {
		act.Drop = append(act.Drop, i)
	}
	c := NewCoordinator(n, 1, fixedAdversary{act}, 0)
	c.phase.Init(n, 1, 1, c.adversary, nil, &c.counters, c.active, c.decisions)
	round := 0
	step := func() {
		round++
		c.outbox = append(c.outbox[:0], outbox...)
		if ndrop, err := c.communicate(round); err != nil || ndrop != n-1 {
			t.Fatalf("round %d: %d drops, err %v", round, ndrop, err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("%.1f allocations per steady-state round, want 0", allocs)
	}
	// Node 1 hears from everyone but itself and the silenced process 0.
	if body := c.lastDeliverBody[1]; len(body) < 3 || body[0] != frameDeliver || body[1] != n-2 || body[2] != 2 {
		t.Fatalf("node 1's DELIVER starts % x, want %02x %02x 02 (kind, count, first sender)", body[:min(3, len(body))], frameDeliver, n-2)
	}
}
