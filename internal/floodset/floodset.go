// Package floodset implements the classic FloodSet consensus algorithm
// (Lynch, "Distributed Algorithms", ch. 6): every process floods the set W
// of values it has seen for t+1 rounds and then decides W's unique element,
// or a default if |W| > 1.
//
// FloodSet is correct under crash faults: a crashed process stops sending
// to everyone simultaneously (up to its crash round), so after t+1 rounds
// all live processes hold the same W. It is the canonical example of an
// algorithm whose correctness does NOT survive the omission model: an
// omission-faulty process can stay silent for t rounds and then reveal its
// value to a single victim in the last round — the victim's W grows while
// everyone else's stays, and agreement/validity break. The adversary
// implementing that attack lives in internal/adversary (FloodSplit); the
// tests in this package demonstrate both the crash-correctness and the
// omission break, which is exactly the crash-vs-omission separation the
// paper's introduction builds on.
package floodset

import (
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// SetMsg carries the sender's value set W ⊆ {0, 1} as two presence bits.
type SetMsg struct {
	Has0, Has1 bool
}

// AppendWire implements wire.Marshaler.
func (m SetMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendBool(buf, m.Has0)
	return wire.AppendBool(buf, m.Has1)
}

// DefaultValue is decided when |W| > 1.
const DefaultValue = 0

// Rounds returns the execution length for budget t.
func Rounds(t int) int { return t + 1 }

// Consensus runs FloodSet: t+1 rounds of flooding, then the decision rule.
func Consensus(env sim.Env, input int) (int, error) {
	n := env.N()
	id := env.ID()
	targets := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			targets = append(targets, i)
		}
	}
	has := [2]bool{}
	has[input&1] = true

	for r := 0; r < Rounds(env.T()); r++ {
		env.Send(SetMsg{Has0: has[0], Has1: has[1]}, targets)
		in := env.Exchange(nil)
		for _, m := range in {
			if sm, ok := m.Payload.(SetMsg); ok {
				has[0] = has[0] || sm.Has0
				has[1] = has[1] || sm.Has1
			}
		}
	}
	switch {
	case has[0] && has[1]:
		return DefaultValue, nil
	case has[1]:
		return 1, nil
	default:
		return 0, nil
	}
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol() sim.Protocol {
	return Consensus
}
