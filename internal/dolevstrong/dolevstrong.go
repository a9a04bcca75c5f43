// Package dolevstrong implements Dolev-Strong consensus — the protocol the
// paper literally cites for Algorithm 1's deterministic backstop
// ("the deterministic synchronous Consensus algorithm given in Theorem 4
// in [15]", working in O(t) rounds with O(n^2 t)–O(n^3) communication).
//
// Dolev-Strong is an authenticated-Byzantine protocol: its signature
// chains stop equivocation. In the general-omission model processes never
// lie, so a "signature" degenerates to the signer's identity carried in
// the relay chain — unforgeable by assumption of the fault model — and the
// protocol's guarantees carry over verbatim:
//
//   - n parallel broadcast instances run in lockstep, one per sender;
//   - in round r, a process that has accepted sender s's value with a
//     chain of r distinct signers relays it once, appending itself;
//   - a value accepted through a chain of length t+1 must contain a
//     non-faulty signer, who relayed it to everyone earlier — so after
//     t+1 rounds all non-faulty processes hold identical per-sender
//     values (⊥ for senders whose value never arrived);
//   - consensus decides the majority of the accepted vector, which is
//     well-defined and valid because the vectors are identical and
//     contain every non-faulty input.
//
// Under omissions a faulty sender cannot send two values, so each instance
// carries at most one value and the relay-once rule bounds communication
// by n^2 messages per instance, O(n^3) in total — matching the complexity
// the paper charges for line 18. Tolerates any t < n/2 (the majority
// decision needs honest weight; broadcast itself tolerates t < n).
package dolevstrong

import (
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// RelayMsg carries sender s's value with its signer chain. Chain[0] is the
// sender; signers are distinct; the receiver appends itself when relaying.
type RelayMsg struct {
	Sender int
	V      int
	Chain  []int
}

// AppendWire implements wire.Marshaler.
func (m RelayMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(m.Sender))
	buf = wire.AppendUvarint(buf, uint64(m.V))
	// Count then elements, the layout of wire.AppendUvarints, without
	// converting the chain into a []uint64 first.
	buf = wire.AppendUvarint(buf, uint64(len(m.Chain)))
	for _, s := range m.Chain {
		buf = wire.AppendUvarint(buf, uint64(s))
	}
	return buf
}

// Rounds returns the execution length for budget t: the t+1 broadcast
// rounds (the first carries the senders' own messages).
func Rounds(t int) int { return t + 1 }

// Run executes the protocol for exactly Rounds(phasesBudget) rounds.
// Non-participants stay silent but consume the same rounds; the returned
// value is the decision (participants) or the input unchanged
// (non-participants). phasesBudget must cover the number of processes that
// may fail to relay (faulty + silent); standalone consensus uses t.
func Run(env sim.Env, input int, participate bool, phasesBudget int) int {
	n := env.N()
	id := env.ID()
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			others = append(others, i)
		}
	}

	// accepted[s] is the value this process extracted for sender s
	// (-1 = none); relayed marks instances already forwarded.
	accepted := make([]int, n)
	relayed := make([]bool, n)
	for i := range accepted {
		accepted[i] = -1
	}
	if participate {
		accepted[id] = input & 1
	}

	rounds := Rounds(phasesBudget)
	// pending holds the relays to send in the next round.
	var pending []RelayMsg
	if participate {
		pending = append(pending, RelayMsg{Sender: id, V: input & 1, Chain: []int{id}})
		relayed[id] = true
	}

	for r := 1; r <= rounds; r++ {
		for _, m := range pending {
			env.Send(m, others)
		}
		pending = nil
		in := env.Exchange(nil)
		if !participate {
			continue
		}
		for _, raw := range in {
			m, ok := raw.Payload.(RelayMsg)
			if !ok || !validChain(m, n, r) {
				continue
			}
			if accepted[m.Sender] == -1 {
				accepted[m.Sender] = m.V
			}
			// Relay once per instance (omission faults cannot
			// equivocate, so one value per sender suffices), unless
			// the chain already contains us or the protocol ends.
			if !relayed[m.Sender] && r < rounds && !contains(m.Chain, id) {
				relayed[m.Sender] = true
				chain := append(append([]int(nil), m.Chain...), id)
				pending = append(pending, RelayMsg{Sender: m.Sender, V: m.V, Chain: chain})
			}
		}
	}
	if !participate {
		return input
	}

	// Decide the majority over the accepted vector (ties -> 0).
	ones, zeros := 0, 0
	for _, v := range accepted {
		switch v {
		case 1:
			ones++
		case 0:
			zeros++
		}
	}
	if ones > zeros {
		return 1
	}
	return 0
}

// validChain checks the structural signature rules: starts at the sender,
// has exactly r distinct signers, and carries a binary value.
func validChain(m RelayMsg, n, round int) bool {
	if m.V != 0 && m.V != 1 || m.Sender < 0 || m.Sender >= n {
		return false
	}
	if len(m.Chain) != round || len(m.Chain) == 0 || m.Chain[0] != m.Sender {
		return false
	}
	seen := make(map[int]bool, len(m.Chain))
	for _, s := range m.Chain {
		if s < 0 || s >= n || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Consensus is the standalone protocol: everyone participates with budget
// t. Deterministic, t+1 rounds, tolerates t < n/2 omission faults.
func Consensus(env sim.Env, input int) (int, error) {
	return Run(env, input, true, env.T()), nil
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol() sim.Protocol {
	return Consensus
}
