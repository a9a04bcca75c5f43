package paramomissions

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"omicon/internal/core"
	"omicon/internal/rng"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// floodRef is the flooding stage as it stood before it moved to masks and
// one broadcast per round: one boxed FloodMsg per neighbor, a persistent
// disregarded map and a fresh heard map per round. It is kept as the
// reference the differential test below holds flood to.
func floodRef(env sim.Env, p Params, neighbors []int, disregarded map[int]bool, hasValue bool, value int) (bool, int, bool) {
	id := env.ID()
	operative := true
	for r := 0; r < p.FloodRounds; r++ {
		var out []sim.Message
		for _, q := range neighbors {
			if !disregarded[q] {
				out = append(out, sim.Msg(id, q, FloodMsg{Has: hasValue, B: value}))
			}
		}
		in := env.Exchange(out)
		heard := make(map[int]bool, len(in))
		received := 0
		for _, m := range in {
			fm, ok := m.Payload.(FloodMsg)
			if !ok || disregarded[m.From] {
				continue
			}
			heard[m.From] = true
			received++
			if fm.Has && !hasValue {
				hasValue, value = true, fm.B
			}
		}
		for _, q := range neighbors {
			if !disregarded[q] && !heard[q] {
				disregarded[q] = true
			}
		}
		if received < p.OperativeThreshold {
			operative = false
			sim.Idle(env, p.FloodRounds-r-1)
			break
		}
	}
	return hasValue, value, operative
}

// stageResult is what one flooding stage returned to one process.
type stageResult struct {
	hasValue  bool
	value     int
	operative bool
}

// floodTrace is everything one process can tell apart between two flood
// implementations: each stage's return values and the links it ended up
// disregarding.
type floodTrace struct {
	stages      []stageResult
	disregarded []bool
}

// floodStages is Consensus's round-robin skeleton with the inner consensus
// cut out: in phase i the members of SP_i hold their candidate bit and
// everyone floods. Unlike Consensus it keeps flooding after a process went
// inoperative, which is the only way to enter a stage with every link
// already cut (the nil outbox).
func floodStages(p Params, ref bool, traces []floodTrace) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		id := env.ID()
		myGroup := p.Decomp.GroupOf(id)
		tr := &traces[id]
		tr.disregarded = make([]bool, p.N)

		links := core.NewLinks(p.Graph, id)
		refDisregarded := make(map[int]bool)
		b := input
		for phase := 0; phase < p.X; phase++ {
			hasValue, value := myGroup == phase, 0
			if hasValue {
				value = b
			}
			var operative bool
			if ref {
				hasValue, value, operative = floodRef(env, p, p.Graph.Neighbors(id), refDisregarded, hasValue, value)
			} else {
				hasValue, value, operative = flood(env, p, &links, hasValue, value)
			}
			if hasValue {
				b = value
			}
			tr.stages = append(tr.stages, stageResult{hasValue, value, operative})
		}
		for q := range tr.disregarded {
			if ref {
				tr.disregarded[q] = refDisregarded[q]
			} else {
				tr.disregarded[q] = links.Disregards(q)
			}
		}
		return b, nil
	}
}

// sentMsg is one outbox entry as the adversary saw it.
type sentMsg struct {
	round, from, to int
	payload         []byte
}

// linkCutter corrupts all but the last process in round 1 — every link then
// has a corrupted endpoint — and omits each message independently with
// probability rate, plus everything addressed to victim in round 1 when
// victim >= 0. It logs every message sent, dropped or not.
type linkCutter struct {
	rnd    *rand.Rand
	rate   float64
	victim int
	log    []sentMsg
}

func (c *linkCutter) Name() string { return "link-cutter" }

func (c *linkCutter) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 {
		for p := 0; p < v.N-1; p++ {
			act.Corrupt = append(act.Corrupt, p)
		}
	}
	for i, m := range v.Outbox {
		c.log = append(c.log, sentMsg{v.Round, m.From, m.To, wire.Encode(m.Payload)})
		if c.rnd.Float64() < c.rate || (v.Round == 1 && m.To == c.victim) {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

// TestFloodMatchesReference drives flood and floodRef through the same
// seeded link-omission schedules and requires the same messages on the wire
// — per round and per (from, to), byte for byte — and the same return
// values and disregarded links at every process.
func TestFloodMatchesReference(t *testing.T) {
	schedules := []struct {
		name   string
		rate   float64
		victim int
	}{
		// Enough loss that links get cut everywhere and some process
		// falls below OperativeThreshold mid-stage (the sim.Idle tail).
		{"lossy", 0.3, -1},
		// Process 5 hears nobody in round 1, cuts every link, and
		// enters the later stages with nothing to send.
		{"blackout", 0.02, 5},
	}
	for _, n := range []int{32, 64} {
		for _, x := range []int{2, 4} {
			p, err := Prepare(n, 0, x)
			if err != nil {
				t.Fatalf("Prepare(%d, 0, %d): %v", n, x, err)
			}
			for _, sc := range schedules {
				t.Run(fmt.Sprintf("n%d-x%d-%s", n, x, sc.name), func(t *testing.T) {
					run := func(ref bool) ([]floodTrace, []sentMsg) {
						adv := &linkCutter{rnd: rng.Unmetered(uint64(n*x), 0xf100d), rate: sc.rate, victim: sc.victim}
						traces := make([]floodTrace, n)
						_, err := sim.Run(sim.Config{
							N: n, T: n - 1, Inputs: mixedInputs(n, n/2), Seed: 9, Adversary: adv,
						}, floodStages(p, ref, traces))
						if err != nil {
							t.Fatalf("Run(ref=%v): %v", ref, err)
						}
						return traces, adv.log
					}
					want, wantLog := run(true)
					got, gotLog := run(false)

					if len(gotLog) != len(wantLog) {
						t.Fatalf("%d messages sent, reference sent %d", len(gotLog), len(wantLog))
					}
					for i, w := range wantLog {
						g := gotLog[i]
						if g.round != w.round || g.from != w.from || g.to != w.to || !bytes.Equal(g.payload, w.payload) {
							t.Fatalf("message %d: round %d %d->%d %x, reference round %d %d->%d %x",
								i, g.round, g.from, g.to, g.payload, w.round, w.from, w.to, w.payload)
						}
					}
					inoperative := false
					for id := range want {
						for s, w := range want[id].stages {
							if got[id].stages[s] != w {
								t.Errorf("process %d stage %d: %+v, reference %+v", id, s, got[id].stages[s], w)
							}
							inoperative = inoperative || !w.operative
						}
						for q, w := range want[id].disregarded {
							if got[id].disregarded[q] != w {
								t.Errorf("process %d: disregarded[%d] = %v, reference %v", id, q, !w, w)
							}
						}
					}

					// The schedule must reach the paths it was built for.
					if !inoperative {
						t.Error("no process fell below OperativeThreshold")
					}
					if sc.victim >= 0 {
						for _, q := range p.Graph.Neighbors(sc.victim) {
							if !want[sc.victim].disregarded[q] {
								t.Errorf("victim %d still listens to neighbor %d", sc.victim, q)
							}
						}
						for _, m := range wantLog {
							if m.from == sc.victim && m.round > p.FloodRounds {
								t.Fatalf("victim %d sent to %d in round %d with every link cut", sc.victim, m.to, m.round)
							}
						}
					}
				})
			}
		}
	}
}
