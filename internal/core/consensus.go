package core

import (
	"fmt"

	"omicon/internal/dolevstrong"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
)

// Snapshot is the full-information state a process publishes to the
// adversary, updated at every epoch boundary and before the finish stage.
// Honest publication is part of the model: the paper's adversary "can see
// the states ... of all processes at any time".
type Snapshot struct {
	Epoch     int
	Phase     string // "epoch", "finish", "fallback"
	B         int
	Operative bool
	Decided   bool
	Ones      int
	Zeros     int
}

// CandidateBit returns the process's current candidate value, implementing
// the observation interface adversary strategies dispatch on.
func (s Snapshot) CandidateBit() int { return s.B }

// IsOperative reports the process's operative status.
func (s Snapshot) IsOperative() bool { return s.Operative }

// HasDecided reports whether the safety rule of line 12 has fired.
func (s Snapshot) HasDecided() bool { return s.Decided }

// Consensus is OptimalOmissionsConsensus (Algorithm 1): the process's code
// for one consensus instance under parameters p. It returns the decision
// bit.
func Consensus(env sim.Env, input int, p Params) (int, error) {
	if env.N() != p.N {
		return -1, fmt.Errorf("core: params prepared for n=%d, environment has n=%d", p.N, env.N())
	}
	b, decided, operative := epochs(env, input, p)
	return Finish(env, p.pids, p.FallbackPhases, p.Fallback, b, decided, operative)
}

// TruncatedConsensus is Algorithm 1 cut at line 16, the form ParamOmissions
// invokes on each super-process: it consumes exactly p.TruncatedRounds()
// communication rounds and returns the consensus value together with
// whether the process actually obtained one (ok=false corresponds to the
// ⊥ outcome in Algorithm 4, line 8's description).
func TruncatedConsensus(env sim.Env, input int, p Params) (value int, ok bool, err error) {
	if env.N() != p.N {
		return -1, false, fmt.Errorf("core: params prepared for n=%d, environment has n=%d", p.N, env.N())
	}
	b, decided, operative := epochs(env, input, p)
	recv := DecisionBroadcastRound(env, p.pids, b, decided, operative)
	if !(operative && decided) && recv >= 0 {
		b = recv
	}
	if decided || recv >= 0 {
		return b, true, nil
	}
	return b, false, nil
}

// epochs runs the main loop of Algorithm 1 (lines 1-13): p.Epochs rounds of
// counting via GroupBitsAggregation + GroupBitsSpreading followed by the
// biased-majority update of lines 9-12.
func epochs(env sim.Env, input int, p Params) (b int, decided, operative bool) {
	id := env.ID()
	gi := newGroupInfo(p, id)
	ls := newLinkState(p, id)

	b = input
	operative = true
	decided = false
	epochRounds := p.EpochRounds()
	aggRounds := 3 * (p.Tree.Layers() - 1)

	for e := 0; e < p.Epochs; e++ {
		env.SetSnapshot(Snapshot{Epoch: e, Phase: "epoch", B: b, Operative: operative, Decided: decided})

		// Line 6: intra-group counting. Inoperative processes keep
		// serving as transmitters (GroupRelay's specification) but
		// never as sources.
		closeAgg := env.Span("group-relay")
		gOnes, gZeros, stillOp := groupBitsAggregation(env, p, gi, operative, b)
		closeAgg()
		wasOperative := operative
		operative = wasOperative && stillOp

		// Line 7: a process that is (or just became) inoperative
		// stays idle until the end of the epoch.
		if !operative {
			sim.Idle(env, epochRounds-aggRounds)
			continue
		}

		// Line 8: inter-group spreading along the Theorem-4 graph.
		closeSpread := env.Span("spreading")
		ones, zeros, stillOp := groupBitsSpreading(env, p, ls, gi.index, gOnes, gZeros)
		closeSpread()
		if !stillOp {
			// Partial counts are never used: only processes
			// operative at the end of the epoch update b
			// (Lemma 8 speaks only about OP_END).
			operative = false
			continue
		}

		// Lines 9-12: the biased-majority-vote update (Figure 3).
		if ones+zeros == 0 {
			continue
		}
		action := VoteUpdate(ones, zeros)
		if action.Coin {
			b = env.Rand().Bit()
		} else {
			b = action.B
		}
		if action.Decide {
			decided = true
		}
		env.SetSnapshot(Snapshot{Epoch: e, Phase: "epoch", B: b, Operative: operative, Decided: decided, Ones: ones, Zeros: zeros})
	}
	return b, decided, operative
}

// DecisionBroadcastRound performs the single communication round of lines
// 14-15: decided operative processes broadcast b to everyone; the returned
// value is the first decision received (-1 if none). It is exported because
// ParamOmissions reuses the identical construction for its line 24-25.
// pids lists 0..env.N()-1 in order.
func DecisionBroadcastRound(env sim.Env, pids []int, b int, decided, operative bool) int {
	defer env.Span("decision-bcast")()
	env.SetSnapshot(Snapshot{Phase: "finish", B: b, Operative: operative, Decided: decided})
	if operative && decided {
		sendToOthers(env, DecisionBcastMsg{B: b}, pids, env.ID())
	}
	in := env.Exchange(nil)
	for _, m := range in {
		if db, ok := m.Payload.(DecisionBcastMsg); ok {
			return db.B
		}
	}
	return -1
}

// Finish implements lines 14-20: the decision broadcast, the early
// decisions of line 16, and the deterministic fallback of lines 18-19.
// ParamOmissions reuses it verbatim for its lines 24-30; pids is as for
// DecisionBroadcastRound.
//
// Fallback correctness relies on two facts established in Lemma 11's proof:
// if any process reached decided=true, then every operative process already
// holds the same b, so the phase-king participants start unanimous and
// unanimity persists under omissions regardless of silent processes; if no
// process decided, the participants are all operative processes (at least
// n-3t of them), so at most 4t slots are silent or faulty and the 5t+1
// phase budget guarantees a phase whose king is a non-faulty participant.
func Finish(env sim.Env, pids []int, fallbackPhases int, kind FallbackKind, b int, decided, operative bool) (int, error) {
	recv := DecisionBroadcastRound(env, pids, b, decided, operative)
	if !(operative && decided) && recv >= 0 {
		b = recv // line 15
	}
	if decided || (!operative && recv >= 0) {
		return b, nil // line 16
	}

	if operative {
		// Line 18: deterministic backstop among the operative
		// undecided, then announce.
		defer env.Span("fallback")()
		env.SetSnapshot(Snapshot{Phase: "fallback", B: b, Operative: operative})
		var v int
		switch kind {
		case FallbackDolevStrong:
			v = dolevstrong.Run(env, b, true, fallbackPhases)
		default:
			v = phaseking.Run(env, b, true, fallbackPhases)
		}
		sendToOthers(env, FinalDecisionMsg{B: v}, pids, env.ID())
		env.Exchange(nil)
		return v, nil
	}

	// Line 19: inoperative and undecided — listen through the fallback
	// window for any decision announcement.
	defer env.Span("fallback")()
	fallbackWindow := phaseking.Rounds(fallbackPhases) + 1
	if kind == FallbackDolevStrong {
		fallbackWindow = dolevstrong.Rounds(fallbackPhases) + 1
	}
	for r := 0; r < fallbackWindow; r++ {
		in := env.Exchange(nil)
		for _, m := range in {
			switch msg := m.Payload.(type) {
			case FinalDecisionMsg:
				return msg.B, nil
			case DecisionBcastMsg:
				return msg.B, nil
			}
		}
	}
	// Unreachable for non-faulty processes: either |D| or |U| exceeds t
	// (Lemma 11), so a non-faulty announcement always arrives.
	return -1, nil
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol(p Params) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		return Consensus(env, input, p)
	}
}
