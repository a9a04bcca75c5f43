package sim

import (
	"sort"

	"omicon/internal/rng"
	"omicon/internal/wire"
)

// SubEnv presents a relabeled subset of processes as a complete environment,
// so that a consensus protocol written for n processes can run unchanged on
// a group (ParamOmissions runs OptimalOmissionsConsensus on each
// super-process SP_i this way). Member processes are renamed 0..k-1 in
// member order; messages are translated in both directions; traffic from
// non-members arriving in the same rounds is discarded (non-members are idle
// by construction of the round-robin schedule).
//
// Send and Exchange translate into buffers the SubEnv owns and reuses,
// which is exactly what the Env.Exchange aliasing contract grants: the
// parent reads targets and outgoing messages only during the call, and a
// returned inbox is valid only until the caller's next Exchange. The
// caller's slices are never written, and neither is the parent's inbox —
// that arena belongs to the engine.
type SubEnv struct {
	parent  Env
	members []int       // sorted global ids
	local   map[int]int // global -> local
	id      int         // local id of this process
	t       int         // sub-budget exposed to the protocol
	round   int

	targets    []int     // reused: one Send's targets under global ids
	translated []Message // reused: an Exchange's outbox under global ids
	localIn    []Message // reused: this round's inbox under local ids
}

// NewSubEnv wraps parent for the given member set (any order; duplicates are
// an error by contract). The calling process must be a member. subT is the
// corruption budget the wrapped protocol should tolerate within the group.
func NewSubEnv(parent Env, members []int, subT int) *SubEnv {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	local := make(map[int]int, len(ms))
	for i, g := range ms {
		local[g] = i
	}
	id, ok := local[parent.ID()]
	if !ok {
		// INVARIANT (panic audit): member sets are computed locally by
		// the caller (ParamOmissions' round-robin schedule), never from
		// network input, so a non-member construction is a programming
		// error; fail loudly at construction rather than mid-protocol.
		panic("sim: SubEnv constructed by non-member process")
	}
	return &SubEnv{parent: parent, members: ms, local: local, id: id, t: subT}
}

var _ Env = (*SubEnv)(nil)

// ID implements Env with the local identifier.
func (s *SubEnv) ID() int { return s.id }

// N implements Env with the group size.
func (s *SubEnv) N() int { return len(s.members) }

// T implements Env with the group corruption budget.
func (s *SubEnv) T() int { return s.t }

// Round implements Env counting this environment's own exchanges.
func (s *SubEnv) Round() int { return s.round }

// Rand implements Env using the parent's metered source (randomness spent
// inside the group counts toward the global execution, per Theorem 8's
// accounting).
func (s *SubEnv) Rand() *rng.Source { return s.parent.Rand() }

// SetSnapshot implements Env, forwarding to the parent so the adversary
// retains full information during sub-protocols.
func (s *SubEnv) SetSnapshot(v any) { s.parent.SetSnapshot(v) }

// Span implements Env, forwarding to the parent so cost spent inside the
// group is attributed to the enclosing execution's span stack.
func (s *SubEnv) Span(name string) func() { return s.parent.Span(name) }

// Send implements Env, translating the targets; a target outside the group
// is dropped, as Exchange drops it.
func (s *SubEnv) Send(payload wire.Marshaler, to []int) {
	s.targets = s.targets[:0]
	for _, q := range to {
		if q >= 0 && q < len(s.members) {
			s.targets = append(s.targets, s.members[q])
		}
	}
	s.parent.Send(payload, s.targets)
}

// Exchange implements Env, translating identifiers both ways.
func (s *SubEnv) Exchange(out []Message) []Message {
	translated := s.translated[:0]
	for _, m := range out {
		if m.To < 0 || m.To >= len(s.members) {
			continue
		}
		gm := m
		gm.From = s.members[m.From]
		gm.To = s.members[m.To]
		translated = append(translated, gm)
	}
	s.translated = translated // keep the grown capacity
	in := s.parent.Exchange(translated)
	s.round++
	localIn := s.localIn[:0]
	for _, m := range in {
		lf, ok := s.local[m.From]
		if !ok {
			continue // stray traffic from outside the group
		}
		lm := m
		lm.From = lf
		lm.To = s.id
		localIn = append(localIn, lm)
	}
	s.localIn = localIn
	return localIn
}
