// Package committee implements consensus by committee sampling: a
// public pseudorandom committee of Theta(sqrt(n)) processes gathers all
// inputs, agrees internally by biased-majority voting, and announces the
// decision — about O(n^{3/2}) total messages, far below the quadratic
// cost of the paper's main algorithm.
//
// The point of this package is the related-work landscape of the paper
// (Appendix A): subquadratic communication is achievable against an
// OBLIVIOUS adversary (Chor-Merritt-Shmoys; Gilbert-Kowalski; King-Saia),
// which must pick its corruptions before the execution and whp misses a
// committee majority — but an ADAPTIVE adversary simply reads the public
// committee and silences it wholesale, which is exactly why consensus
// against the paper's adversary has an Omega(t^2) message floor
// (Abraham et al. [1]) and why OptimalOmissionsConsensus pays its n^2.
// The tests demonstrate both halves of that separation.
package committee

import (
	"sort"

	"omicon/internal/core"
	"omicon/internal/rng"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// Params configures the protocol.
type Params struct {
	// CommitteeSize is the number of sampled members (2*sqrt(n) by
	// default).
	CommitteeSize int
	// Epochs is the internal voting length.
	Epochs int
	// Seed selects the public committee; every process derives the same
	// set locally (and so can the adaptive adversary — that is the
	// point).
	Seed uint64
}

// DefaultParams sizes the committee for n processes.
func DefaultParams(n int) Params {
	size := 2
	for size*size < 4*n {
		size++
	}
	if size > n {
		size = n
	}
	return Params{CommitteeSize: size, Epochs: logCeil(n) + 3, Seed: 0xc0117}
}

// Committee returns the sampled member ids, sorted. It is a pure function
// of (n, p) — public knowledge.
func Committee(n int, p Params) []int {
	rnd := rng.Unmetered(p.Seed, uint64(n))
	perm := rnd.Perm(n)
	members := append([]int(nil), perm[:p.CommitteeSize]...)
	sort.Ints(members)
	return members
}

// InputMsg carries a process's input to the committee.
type InputMsg struct{ B int }

// AppendWire implements wire.Marshaler.
func (m InputMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 1)
	return wire.AppendUvarint(buf, uint64(m.B))
}

// VoteMsg is the intra-committee per-epoch broadcast.
type VoteMsg struct{ B int }

// AppendWire implements wire.Marshaler.
func (m VoteMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 2)
	return wire.AppendUvarint(buf, uint64(m.B))
}

// DecisionMsg is the committee's announcement.
type DecisionMsg struct{ B int }

// AppendWire implements wire.Marshaler.
func (m DecisionMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 3)
	return wire.AppendUvarint(buf, uint64(m.B))
}

// Rounds returns the fixed execution length.
func Rounds(p Params) int { return 1 + p.Epochs + 1 + 1 }

// Consensus runs the committee protocol. Correct whp against oblivious
// crash adversaries with t below a constant fraction of n; broken by
// design against an adaptive adversary with t >= CommitteeSize.
func Consensus(env sim.Env, input int, p Params) (int, error) {
	n := env.N()
	id := env.ID()
	members := Committee(n, p)
	isMember := false
	memberIdx := map[int]bool{}
	for _, m := range members {
		memberIdx[m] = true
		if m == id {
			isMember = true
		}
	}

	// Round 1: everyone reports its input to the committee.
	peers := make([]int, 0, len(members))
	for _, m := range members {
		if m != id {
			peers = append(peers, m)
		}
	}
	env.Send(InputMsg{B: input}, peers)
	in := env.Exchange(nil)
	b := input
	if isMember {
		ones, zeros := 0, 0
		if input == 1 {
			ones++
		} else {
			zeros++
		}
		for _, m := range in {
			if im, ok := m.Payload.(InputMsg); ok {
				if im.B == 1 {
					ones++
				} else {
					zeros++
				}
			}
		}
		if ones > zeros {
			b = 1
		} else {
			b = 0
		}
	}

	// Intra-committee voting: Epochs rounds of all-to-all among members
	// with the biased-majority thresholds.
	for e := 0; e < p.Epochs; e++ {
		if isMember {
			env.Send(VoteMsg{B: b}, peers)
		}
		in = env.Exchange(nil)
		if !isMember {
			continue
		}
		ones, zeros := 0, 0
		if b == 1 {
			ones++
		} else {
			zeros++
		}
		for _, m := range in {
			if vm, ok := m.Payload.(VoteMsg); ok && memberIdx[m.From] {
				if vm.B == 1 {
					ones++
				} else {
					zeros++
				}
			}
		}
		// Own vote included, so the tally is never empty.
		if act := core.VoteUpdate(ones, zeros); act.Coin {
			b = env.Rand().Bit()
		} else {
			b = act.B
		}
	}

	// Announcement: members broadcast, everyone adopts the majority of
	// announcements (falling back to its own input when the committee
	// is silent — the adaptive adversary's jackpot).
	if isMember {
		targets := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != id {
				targets = append(targets, i)
			}
		}
		env.Send(DecisionMsg{B: b}, targets)
	}
	in = env.Exchange(nil)
	ones, zeros := 0, 0
	if isMember {
		if b == 1 {
			ones++
		} else {
			zeros++
		}
	}
	for _, m := range in {
		if dm, ok := m.Payload.(DecisionMsg); ok && memberIdx[m.From] {
			if dm.B == 1 {
				ones++
			} else {
				zeros++
			}
		}
	}
	decision := b // members keep their vote; silent-committee fallback for the rest
	if ones+zeros > 0 {
		if ones > zeros {
			decision = 1
		} else {
			decision = 0
		}
	} else if !isMember {
		decision = input
	}
	// Final padding round keeps the schedule uniform regardless of role.
	env.Exchange(nil)
	return decision, nil
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol(p Params) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		return Consensus(env, input, p)
	}
}

func logCeil(n int) int {
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}
