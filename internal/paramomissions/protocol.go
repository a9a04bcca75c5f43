package paramomissions

import (
	"fmt"

	"omicon/internal/bitset"
	"omicon/internal/core"
	"omicon/internal/sim"
)

// linkState is the flooding bookkeeping one process keeps for a whole
// Consensus call: its neighbors in the Theorem-4 graph, the links it has
// permanently disregarded, and the per-round scratch, reused across rounds
// and flooding stages so that a steady-state flood round allocates only the
// boxing of its one payload.
type linkState struct {
	neighbors   []int
	disregarded *bitset.Set   // persistent across flooding stages
	heard       *bitset.Set   // pids heard this round
	live        []int         // reused: this round's non-disregarded neighbors
	out         []sim.Message // reused outbox, one slot per neighbor (backing reusable after Exchange)
}

func newLinkState(p Params, id int) *linkState {
	neighbors := p.Graph.Neighbors(id)
	return &linkState{
		neighbors:   neighbors,
		disregarded: bitset.New(p.N),
		heard:       bitset.New(p.N),
		live:        make([]int, 0, len(neighbors)),
		out:         make([]sim.Message, 0, len(neighbors)),
	}
}

// Consensus is ParamOmissions (Algorithm 4): the process's code for one
// consensus instance under parameters p.
func Consensus(env sim.Env, input int, p Params) (int, error) {
	if env.N() != p.N {
		return -1, fmt.Errorf("paramomissions: params prepared for n=%d, environment has n=%d", p.N, env.N())
	}
	id := env.ID()
	myGroup := p.Decomp.GroupOf(id)

	b := input
	operative := true
	ls := newLinkState(p, id)

	// Round-robin stage (lines 4-14).
	for phase := 0; phase < p.X; phase++ {
		members := p.Decomp.Group(phase)
		innerParams := p.inner[len(members)]
		innerRounds := innerParams.TruncatedRounds()

		if !operative {
			// Line 10: an inoperative process stays idle until the
			// final decision broadcast (line 25). Skip the rest of
			// the round-robin and the safety round, then listen.
			remaining := 0
			for i := phase; i < p.X; i++ {
				remaining += p.PhaseRounds(i)
			}
			sim.Idle(env, remaining+1) // +1 covers the safety-rule round
			return core.Finish(env, p.N, p.FallbackPhases, core.FallbackPhaseKing, b, false, false)
		}

		env.SetSnapshot(Snapshot{Phase: phase, Stage: "inner", B: b, Operative: operative})

		// Lines 5-8: this phase's super-process runs the truncated
		// inner consensus; everyone else waits the fixed round count.
		hasValue := false
		value := 0
		if myGroup == phase {
			sub := sim.NewSubEnv(env, members, innerParams.T)
			v, ok, err := core.TruncatedConsensus(sub, b, innerParams)
			if err != nil {
				return -1, fmt.Errorf("paramomissions: phase %d: %w", phase, err)
			}
			if ok {
				hasValue, value = true, v
			}
		} else {
			sim.Idle(env, innerRounds)
		}

		// Lines 9-12: flood the decision along the graph.
		hasValue, value, operative = flood(env, p, ls, hasValue, value)

		// Line 13: adopt the propagated decision as the next input.
		if hasValue {
			b = value
		}
		env.SetSnapshot(Snapshot{Phase: phase, Stage: "flood", B: b, HasValue: hasValue, Operative: operative})
	}

	// Safety rule, lines 15-23: one all-to-all exchange of candidate bits
	// with Algorithm 1's thresholds (deterministic — no coin here).
	decided := false
	var out []sim.Message
	if operative {
		out = sim.Broadcast(id, SafetyMsg{B: b}, others(p.N, id))
	}
	env.SetSnapshot(Snapshot{Stage: "safety", B: b, Operative: operative})
	in := env.Exchange(out)
	if operative {
		ones, zeros := 0, 0
		if b == 1 {
			ones++
		} else {
			zeros++
		}
		for _, m := range in {
			sm, ok := m.Payload.(SafetyMsg)
			if !ok {
				continue
			}
			if sm.B == 1 {
				ones++
			} else {
				zeros++
			}
		}
		total := ones + zeros
		switch {
		case 30*ones > 18*total:
			b = 1
		case 30*ones < 15*total:
			b = 0
		}
		if 30*ones > 27*total || 30*ones < 3*total {
			decided = true
		}
	}

	// Lines 24-30: identical to Algorithm 1's finish stage.
	return core.Finish(env, p.N, p.FallbackPhases, core.FallbackPhaseKing, b, decided, operative)
}

// flood implements the 2 log n gossip of lines 9-12: operative processes
// repeatedly send their (possibly absent) propagated decision to
// non-disregarded neighbors, disregard silent links, and become inoperative
// below the Δ/3 threshold. Every live neighbor gets the same payload in a
// round, and neighbors are ascending, so a round is one broadcast.
func flood(env sim.Env, p Params, ls *linkState, hasValue bool, value int) (bool, int, bool) {
	id := env.ID()
	operative := true
	for r := 0; r < p.FloodRounds; r++ {
		live := ls.live[:0]
		for _, q := range ls.neighbors {
			if !ls.disregarded.Contains(q) {
				live = append(live, q)
			}
		}
		var out []sim.Message // nil when every link is cut: an idle round
		if len(live) > 0 {
			out = sim.AppendBroadcast(ls.out[:0], id, FloodMsg{Has: hasValue, B: value}, live)
		}
		in := env.Exchange(out)

		heard := ls.heard
		heard.Clear()
		received := 0
		for _, m := range in {
			fm, ok := m.Payload.(FloodMsg)
			if !ok || ls.disregarded.Contains(m.From) {
				continue
			}
			heard.Add(m.From)
			received++
			if fm.Has && !hasValue {
				hasValue, value = true, fm.B
			}
		}
		for _, q := range live {
			if !heard.Contains(q) {
				ls.disregarded.Add(q)
			}
		}
		if received < p.OperativeThreshold {
			// Inoperative: idle out the remaining flood rounds so
			// the caller stays in lockstep.
			operative = false
			sim.Idle(env, p.FloodRounds-r-1)
			break
		}
	}
	return hasValue, value, operative
}

func others(n, self int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != self {
			out = append(out, i)
		}
	}
	return out
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol(p Params) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		return Consensus(env, input, p)
	}
}
