// Package valency implements the valency-classification framework of the
// paper's lower bound (Appendix C, following [18]/[10]) as an exhaustive
// model checker for small deterministic protocols: it enumerates every
// adversarial strategy (corruption choices and per-round omission
// patterns) on the full execution tree and classifies states by the set of
// decisions reachable from them.
//
// For deterministic protocols the classification collapses to the classic
// form: a state is 0-valent when every strategy leads to decision 0,
// 1-valent when every strategy leads to 1, and bivalent when both
// decisions are reachable. The package computationally verifies Lemma 13
// ("for any synchronous consensus algorithm there exists an initial state
// which, if the adversary can control one process, is null-valent or
// bivalent") on concrete protocols, and exposes the chain argument of its
// proof: walking the input assignments 00..0 -> 11..1 one flip at a time
// and exhibiting the pivotal neighbor pair.
//
// The exponential enumeration limits it to toy sizes (n <= 5, a few
// rounds) — exactly the regime the proof's intuition lives in.
package valency

import (
	"fmt"
)

// Protocol is a deterministic full-information round protocol amenable to
// exhaustive analysis. States are small integers; every process runs the
// same code.
type Protocol interface {
	// Init maps an input bit to the initial state.
	Init(input int) int
	// Step computes the next state from the current state and the
	// received states (received[q] = state sent by q this round, or
	// Omitted when the message was dropped or q == self).
	Step(self int, state int, received []int) int
	// Decide maps a final state (after Rounds rounds) to the decision.
	Decide(state int) int
	// Rounds is the protocol length.
	Rounds() int
}

// Omitted marks a dropped (or self) slot in the received vector.
const Omitted = -1

// Majority is the toy protocol of the FLP/Lemma-13 intuition, run for the
// given number of rounds: states are candidate bits, each round every
// process adopts the majority of the bits it saw (its own included; ties
// keep the current bit), and the final state is the decision.
type Majority int

// Init implements Protocol.
func (Majority) Init(input int) int { return input }

// Step implements Protocol.
func (Majority) Step(self, state int, received []int) int {
	ones, zeros := 0, 0
	if state == 1 {
		ones++
	} else {
		zeros++
	}
	for _, r := range received {
		switch r {
		case 1:
			ones++
		case 0:
			zeros++
		}
	}
	switch {
	case ones > zeros:
		return 1
	case zeros > ones:
		return 0
	default:
		return state
	}
}

// Decide implements Protocol.
func (Majority) Decide(state int) int { return state }

// Rounds implements Protocol.
func (m Majority) Rounds() int { return int(m) }

// Valence is the decision set reachable from a state under some strategy.
type Valence int

// The classification of Appendix C specialized to deterministic
// protocols (the null-valent probability band degenerates).
const (
	ZeroValent Valence = iota + 1
	OneValent
	Bivalent
)

// String implements fmt.Stringer.
func (v Valence) String() string {
	switch v {
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	default:
		return fmt.Sprintf("valence(%d)", int(v))
	}
}

// Analyzer explores the execution tree of a protocol instance.
type Analyzer struct {
	proto Protocol
	n     int
	// corrupted is the single adversary-controlled process (the Lemma 13
	// setting: "if the adversary can control one process"); -1 = none.
	corrupted int
}

// NewAnalyzer builds an analyzer for n processes with one corrupted
// process (pass -1 for a fault-free tree).
func NewAnalyzer(proto Protocol, n, corrupted int) *Analyzer {
	return &Analyzer{proto: proto, n: n, corrupted: corrupted}
}

// execState is a node of the execution tree.
type execState struct {
	round  int
	states []int
}

func (a *Analyzer) key(s execState) string {
	return fmt.Sprint(s.round, s.states)
}

// ReachableDecisions returns the set of decisions some adversarial
// strategy can force from the given inputs. The adversary may, in every
// round, drop any subset of the corrupted process's incoming and outgoing
// messages.
func (a *Analyzer) ReachableDecisions(inputs []int) map[int]bool {
	states := make([]int, a.n)
	for p, in := range inputs {
		states[p] = a.proto.Init(in)
	}
	memo := make(map[string]map[int]bool)
	return a.explore(execState{round: 0, states: states}, memo)
}

func (a *Analyzer) explore(s execState, memo map[string]map[int]bool) map[int]bool {
	if s.round == a.proto.Rounds() {
		out := map[int]bool{}
		// Decisions of non-corrupted processes define the outcome; a
		// run in which they disagree is recorded as both.
		for p, st := range s.states {
			if p == a.corrupted {
				continue
			}
			out[a.proto.Decide(st)] = true
		}
		return out
	}
	k := a.key(s)
	if cached, ok := memo[k]; ok {
		return cached
	}
	memo[k] = map[int]bool{} // cycle guard (rounds strictly increase: unused)

	result := map[int]bool{}
	// Enumerate the adversary's omission pattern: a bitmask over the
	// corrupted process's 2(n-1) directed links (outgoing and incoming).
	patterns := 1
	if a.corrupted >= 0 {
		patterns = 1 << uint(2*(a.n-1))
	}
	for pat := 0; pat < patterns; pat++ {
		next := a.stepWithPattern(s, pat)
		for d := range a.explore(next, memo) {
			result[d] = true
		}
		if len(result) == 2 {
			break // both decisions reachable; no need to continue
		}
	}
	memo[k] = result
	return result
}

// stepWithPattern applies one synchronous round under the given omission
// bitmask. Bit i (i < n-1) drops the corrupted process's outgoing message
// to the i-th other process; bit n-1+i drops its incoming message from the
// i-th other process.
func (a *Analyzer) stepWithPattern(s execState, pat int) execState {
	next := execState{round: s.round + 1, states: make([]int, a.n)}
	others := make([]int, 0, a.n-1)
	for p := 0; p < a.n; p++ {
		if p != a.corrupted {
			others = append(others, p)
		}
	}
	for p := 0; p < a.n; p++ {
		received := make([]int, a.n)
		for q := 0; q < a.n; q++ {
			received[q] = Omitted
			if q == p {
				continue
			}
			dropped := false
			if a.corrupted >= 0 {
				if q == a.corrupted {
					// corrupted -> p: outgoing link index of p.
					dropped = pat&(1<<uint(indexOf(others, p))) != 0
				} else if p == a.corrupted {
					// q -> corrupted: incoming link index of q.
					dropped = pat&(1<<uint(a.n-1+indexOf(others, q))) != 0
				}
			}
			if !dropped {
				received[q] = s.states[q]
			}
		}
		next.states[p] = a.proto.Step(p, s.states[p], received)
	}
	return next
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// Classify maps the reachable-decision set of an input assignment to its
// valence.
func (a *Analyzer) Classify(inputs []int) Valence {
	d := a.ReachableDecisions(inputs)
	switch {
	case d[0] && d[1]:
		return Bivalent
	case d[1]:
		return OneValent
	default:
		return ZeroValent
	}
}

// Lemma13Witness walks the input chain 00..0 -> 11..1 (flipping one input
// per step, the proof of Lemma 13) and returns a bivalent assignment if
// one exists, together with the pivotal index at which valence flips.
// found=false means every assignment is univalent AND the chain has no
// 0-valent/1-valent neighbor pair — impossible for a correct consensus
// protocol, so callers treat it as a refutation.
func (a *Analyzer) Lemma13Witness() (inputs []int, pivot int, found bool) {
	chain := make([]int, a.n)
	prev := a.Classify(chain)
	if prev == Bivalent {
		return append([]int(nil), chain...), 0, true
	}
	for i := 0; i < a.n; i++ {
		chain[i] = 1
		cur := a.Classify(chain)
		if cur == Bivalent {
			return append([]int(nil), chain...), i, true
		}
		if prev == ZeroValent && cur == OneValent {
			// The pivotal pair: differing only in input i, with
			// opposite valences. Controlling process i and silencing
			// it makes the two executions indistinguishable — the
			// contradiction at the heart of Lemma 13. Report the
			// 1-side as the witness.
			return append([]int(nil), chain...), i, true
		}
		prev = cur
	}
	return nil, -1, false
}
