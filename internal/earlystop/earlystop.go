// Package earlystop implements an early-stopping consensus protocol for
// the general-omission model, the problem variant of the paper's related
// work ([33] Parvédy-Raynal-Travers, [34] Roşu): the worst case still
// costs O(t) phases, but an execution with f ≤ t *actual* faults decides
// within O(f) phases.
//
// The protocol is phase-king with an early-decision rule, sound for
// t < n/6 omission faults:
//
//   - a participant that counts mult ≥ n - t identical preferences v in a
//     universal-exchange round decides v immediately and announces it in a
//     DECIDED broadcast before leaving;
//   - a participant receiving a DECIDED announcement adopts v and decides
//     in the following phase (omission-faulty processes never lie, so an
//     announcement is trustworthy);
//   - otherwise the phase-king update applies.
//
// Safety: if p decides v on mult ≥ n - t, every non-faulty q counted at
// least n - 2t preferences v (q hears every non-faulty v-sender), and
// n - 2t > n/2 + t when t < n/6, so every non-faulty participant keeps
// maj = v through phase-king persistence — no other value can ever be
// decided. Liveness: with f actual faults, once the adversary's
// interference is exhausted the first clean universal exchange shows
// mult ≥ n - f ≥ n - t and everyone decides — in fault-free executions
// that is the very first phase, 3 rounds total, against the 2(t+1)-round
// schedule of the non-early-stopping baseline.
package earlystop

import (
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// PrefMsg is the per-phase universal exchange.
type PrefMsg struct{ V int }

// AppendWire implements wire.Marshaler.
func (m PrefMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 1)
	return wire.AppendUvarint(buf, uint64(m.V))
}

// KingMsg is the king's tie-break.
type KingMsg struct{ V int }

// AppendWire implements wire.Marshaler.
func (m KingMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 2)
	return wire.AppendUvarint(buf, uint64(m.V))
}

// DecidedMsg announces an early decision.
type DecidedMsg struct{ V int }

// AppendWire implements wire.Marshaler.
func (m DecidedMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 3)
	return wire.AppendUvarint(buf, uint64(m.V))
}

// MaxRounds bounds an execution: t+1 phases of 3 rounds plus the final
// announcement round.
func MaxRounds(t int) int { return 3*(t+1) + 1 }

// Consensus runs the early-stopping protocol. It requires t < n/6 for the
// early-decision rule's safety margin.
func Consensus(env sim.Env, input int) (int, error) {
	n := env.N()
	t := env.T()
	id := env.ID()
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			others = append(others, i)
		}
	}
	pref := input
	adopted := -1 // value adopted from a DECIDED announcement

	for phase := 0; phase <= t; phase++ {
		king := phase % n

		// Round 1: universal exchange (processes that adopted an
		// announced decision re-announce instead, then leave).
		if adopted >= 0 {
			env.Send(DecidedMsg{V: adopted}, others)
			env.Exchange(nil)
			return adopted, nil
		}
		env.Send(PrefMsg{V: pref}, others)
		in := env.Exchange(nil)
		c := [2]int{}
		heardDecided := -1
		for _, m := range in {
			switch pm := m.Payload.(type) {
			case PrefMsg:
				if pm.V == 0 || pm.V == 1 {
					c[pm.V]++
				}
			case DecidedMsg:
				if pm.V == 0 || pm.V == 1 {
					heardDecided = pm.V
				}
			}
		}
		c[pref]++ // own preference
		maj, mult := 0, c[0]
		if c[1] > c[0] {
			maj, mult = 1, c[1]
		}

		// Early decision: overwhelming support means every non-faulty
		// process is already locked onto maj.
		if mult >= n-t {
			env.Send(DecidedMsg{V: maj}, others)
			env.Exchange(nil)
			return maj, nil
		}
		if heardDecided >= 0 {
			// Adopt and decide next phase (after re-announcing so
			// laggards cascade).
			adopted = heardDecided
			pref = heardDecided
			// Consume the king round to stay in phase lockstep.
			env.Exchange(nil)
			continue
		}

		// Round 2: king tie-break.
		if id == king {
			env.Send(KingMsg{V: maj}, others)
		}
		in = env.Exchange(nil)
		kingVal := -1
		for _, m := range in {
			switch km := m.Payload.(type) {
			case KingMsg:
				if m.From == king && (km.V == 0 || km.V == 1) {
					kingVal = km.V
				}
			case DecidedMsg:
				// Early deciders announce during this slot; adopt
				// their value (announcements are trustworthy in
				// the omission model).
				if km.V == 0 || km.V == 1 {
					adopted = km.V
				}
			}
		}
		if adopted >= 0 {
			pref = adopted
			continue
		}
		if 2*mult > n+2*t {
			pref = maj
		} else if kingVal >= 0 {
			pref = kingVal
		} else {
			pref = maj
		}
	}
	return pref, nil
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol() sim.Protocol {
	return Consensus
}
