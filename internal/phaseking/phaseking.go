// Package phaseking implements a deterministic consensus protocol for the
// general-omission fault model, used in two roles:
//
//   - standalone, as the deterministic baseline of the experiment suite
//     (O(t) rounds, O(n^2 t) communication bits, zero randomness — the
//     regime Table 1 contrasts the randomized algorithms against), and
//   - as the probability-1 backstop invoked in line 18 of Algorithm 1.
//     The paper calls the authenticated protocol of Dolev-Strong [15]
//     there as a black box; phase-king is our signature-free substitute
//     with the same complexity envelope (see DESIGN.md).
//
// The protocol is the Berman-Garay-Perry phase-king scheme. Each of the
// phases has a designated king (process k-1 in phase k) and two rounds:
//
//	round 1: every participant broadcasts its preference; each computes
//	         the majority value maj and its multiplicity mult among the
//	         values received;
//	round 2: the king broadcasts its maj; a participant keeps its own maj
//	         if mult exceeds the persistence threshold n/2 + t, and
//	         otherwise adopts the king's value (falling back to its own
//	         maj if the king's message was omitted).
//
// Correctness in the omission model (faulty processes never lie; messages
// between two non-faulty processes are always delivered):
//
//   - Unanimity persistence needs no threshold at all: omission faults
//     cannot fabricate values, so if every participant prefers v, the only
//     value ever observed is v.
//   - Once some non-faulty participant p keeps v with mult > n/2 + t, at
//     least mult - t > n/2 non-faulty participants sent v, so every other
//     non-faulty participant q has c_v(q) > n/2 > c_{1-v}(q) and maj_q = v.
//   - In a phase whose king is a non-faulty participant, every non-faulty
//     participant either keeps (value v as above) or adopts the king's
//     maj, which equals v by the same counting; afterwards agreement
//     persists because c_v > n/2 + t whenever the participant set has more
//     than 2t members, and by unanimity otherwise.
//
// A participant set may be a strict subset of the n slots: non-participants
// stay silent (indistinguishable from crashed processes). Agreement through
// a good king requires silent + faulty < the number of phases; the caller
// chooses the phase budget for its scenario (Algorithm 1 uses 5t+1, see
// internal/core).
package phaseking

import (
	"omicon/internal/bitset"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// ValueMsg carries a participant's preference in round 1 of a phase.
type ValueMsg struct{ V int }

// AppendWire implements wire.Marshaler.
func (m ValueMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, tagValue)
	return wire.AppendUvarint(buf, uint64(m.V))
}

// KingMsg carries the king's tie-breaking value in round 2 of a phase.
type KingMsg struct{ V int }

// AppendWire implements wire.Marshaler.
func (m KingMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, tagKing)
	return wire.AppendUvarint(buf, uint64(m.V))
}

const (
	tagValue = 1
	tagKing  = 2
)

// Rounds returns the exact number of communication rounds Run consumes for
// the given phase budget, so callers can keep silent processes in lockstep.
func Rounds(phases int) int { return 2 * phases }

// DefaultPhases returns the standalone phase budget t+1, enough when every
// process participates.
func DefaultPhases(t int) int { return t + 1 }

// Run executes the protocol for exactly Rounds(phases) communication rounds.
// Non-participants send nothing but consume the same rounds, keeping the
// lockstep schedule intact. The returned value is the final preference
// (input is returned unchanged for non-participants).
func Run(env sim.Env, input int, participate bool, phases int) int {
	n := env.N()
	t := env.T()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	pref := input

	// Reused per-phase scratch: the round-1 tally is two packed voter sets
	// whose popcounts are the majority counts — every participant
	// broadcasts at most one ValueMsg per round, so distinct voters = votes.
	votes := [2]*bitset.Set{bitset.New(n), bitset.New(n)}

	for phase := 0; phase < phases; phase++ {
		king := phase % n

		// Round 1: universal exchange of preferences.
		if participate {
			env.Send(ValueMsg{pref}, all)
		}
		in := env.Exchange(nil)
		votes[0].Clear()
		votes[1].Clear()
		for _, m := range in {
			if vm, ok := m.Payload.(ValueMsg); ok && (vm.V == 0 || vm.V == 1) {
				votes[vm.V].Add(m.From)
			}
		}
		c0, c1 := votes[0].Count(), votes[1].Count()
		maj, mult := 0, c0
		if c1 > c0 {
			maj, mult = 1, c1
		}

		// Round 2: the king broadcasts its majority value.
		if participate && env.ID() == king {
			env.Send(KingMsg{maj}, all)
		}
		in = env.Exchange(nil)
		kingVal := -1
		for _, m := range in {
			if km, ok := m.Payload.(KingMsg); ok && m.From == king && (km.V == 0 || km.V == 1) {
				kingVal = km.V
			}
		}
		if participate {
			if 2*mult > n+2*t { // mult > n/2 + t
				pref = maj
			} else if kingVal >= 0 {
				pref = kingVal
			} else {
				pref = maj
			}
		}
	}
	return pref
}

// Consensus is the standalone deterministic protocol: every process
// participates and the phase budget is t+1. It decides in exactly
// 2(t+1) rounds with zero randomness, tolerating t < n/4 omission faults.
//
// The span is opened here and not in Run so that an invocation from
// Algorithm 1's line 18 stays attributed to the caller's "fallback" region.
func Consensus(env sim.Env, input int) (int, error) {
	defer env.Span("phase-king")()
	return Run(env, input, true, DefaultPhases(env.T())), nil
}
