package paramomissions

import (
	"fmt"

	"omicon/internal/core"
	"omicon/internal/sim"
)

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
	links := core.NewLinks(p.Graph, id)

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
			return core.Finish(env, p.pids, p.FallbackPhases, core.FallbackPhaseKing, b, false, false)
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
		hasValue, value, operative = flood(env, p, &links, hasValue, value)

		// Line 13: adopt the propagated decision as the next input.
		if hasValue {
			b = value
		}
		env.SetSnapshot(Snapshot{Phase: phase, Stage: "flood", B: b, HasValue: hasValue, Operative: operative})
	}

	// Safety rule, lines 15-23: one all-to-all exchange of candidate bits
	// with Algorithm 1's thresholds (deterministic — no coin here).
	decided := false
	if operative {
		env.Send(SafetyMsg{B: b}, p.pids[:id])
		env.Send(SafetyMsg{B: b}, p.pids[id+1:])
	}
	env.SetSnapshot(Snapshot{Stage: "safety", B: b, Operative: operative})
	in := env.Exchange(nil)
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
		// Own vote included, so the tally is never empty.
		act := core.VoteUpdate(ones, zeros)
		if !act.Coin {
			b = act.B
		}
		decided = act.Decide
	}

	// Lines 24-30: identical to Algorithm 1's finish stage.
	return core.Finish(env, p.pids, p.FallbackPhases, core.FallbackPhaseKing, b, decided, operative)
}

// flood implements the 2 log n gossip of lines 9-12 on the operative flood
// shared with Algorithm 3: operative processes repeatedly send their
// (possibly absent) propagated decision and adopt the first one they hear.
// An inoperative process idles out the remaining flood rounds so the
// caller stays in lockstep.
func flood(env sim.Env, p Params, links *core.Links, hasValue bool, value int) (bool, int, bool) {
	take := func(fm FloodMsg) {
		if fm.Has && !hasValue {
			hasValue, value = true, fm.B
		}
	}
	for r := 0; r < p.FloodRounds; r++ {
		if !core.FloodRound(env, links, FloodMsg{Has: hasValue, B: value}, p.OperativeThreshold, take) {
			sim.Idle(env, p.FloodRounds-r-1)
			return hasValue, value, false
		}
	}
	return hasValue, value, true
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol(p Params) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		return Consensus(env, input, p)
	}
}
