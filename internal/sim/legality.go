package sim

import "fmt"

// Legality validates a stream of adversary actions against the model rules
// of Section 2: corruption is permanent and budgeted by t, and only
// messages with a corrupted endpoint may be omitted. It is the single
// authority on action legality — every communication phase (CommPhase, on
// the engine and on the TCP coordinator) runs one per execution, and
// property tests run a strict one against every built-in strategy, so the
// rules enforced at runtime and the rules asserted in tests cannot drift
// apart.
//
// A Legality is stateful: it tracks the corrupted set across rounds exactly
// as the engine applies it. Check must be called once per communication
// phase, in round order.
type Legality struct {
	n, t      int
	corrupted []bool
	numCorr   int

	// strict additionally rejects actions the engine tolerates as no-ops:
	// corrupting an already-corrupted process (within or across rounds)
	// and listing the same drop index twice. Built-in strategies must be
	// strictly legal; the engine stays tolerant so hand-written
	// adversaries keep working.
	strict bool
}

// NewLegality returns an engine-grade checker for an (n, t) instance.
func NewLegality(n, t int) *Legality {
	return &Legality{n: n, t: t, corrupted: make([]bool, n)}
}

// NewStrictLegality returns a checker that also rejects double-corruption
// and duplicate drops — the contract every built-in strategy satisfies.
func NewStrictLegality(n, t int) *Legality {
	l := NewLegality(n, t)
	l.strict = true
	return l
}

// IsCorrupted reports whether process p is under adversarial control.
func (l *Legality) IsCorrupted(p int) bool { return l.corrupted[p] }

// NumCorrupted returns the size of the corrupted set.
func (l *Legality) NumCorrupted() int { return l.numCorr }

// Mask returns a copy of the corrupted set.
func (l *Legality) Mask() []bool { return append([]bool(nil), l.corrupted...) }

// Corrupt applies one corruption outside any adversary action — a real
// process failure a driver absorbs as an in-model fault — with the budget
// check of Check.
func (l *Legality) Corrupt(round, p int) error {
	_, err := l.checkIntoCleared(round, nil, Action{Corrupt: []int{p}}, nil, nil)
	return err
}

// Check validates one communication phase's action against the outbox and
// applies its corruptions. On success it returns the set of dropped outbox
// indices. Corruptions are applied before drops are judged (a message from
// a process corrupted this round may legally be dropped this round), and
// in-range corruptions are recorded even when a later check fails, matching
// the engine's abort semantics.
func (l *Legality) Check(round int, outbox []Message, act Action) (map[int]bool, error) {
	dropped := make([]bool, len(outbox))
	n, err := l.CheckInto(round, outbox, act, dropped)
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, n)
	for idx, d := range dropped {
		if d {
			set[idx] = true
		}
	}
	return set, nil
}

// CheckInto is Check with caller-owned drop storage, for the engine's
// per-round hot path: dropped must have exactly len(outbox) entries and is
// reset and filled here, avoiding a map allocation per round. It returns
// the number of dropped messages. Semantics are identical to Check.
func (l *Legality) CheckInto(round int, outbox []Message, act Action, dropped []bool) (int, error) {
	for i := range dropped {
		dropped[i] = false
	}
	return l.checkIntoCleared(round, outbox, act, dropped, nil)
}

// checkIntoCleared is CheckInto minus the reset pass: dropped must arrive
// all-false. CommPhase keeps its mask that way between phases by unmarking
// only the indices each action dropped, so a round pays for its drops, not
// for an O(m) clear. A non-nil onDrop is told each index as it is marked.
func (l *Legality) checkIntoCleared(round int, outbox []Message, act Action, dropped []bool, onDrop func(idx int)) (int, error) {
	for _, p := range act.Corrupt {
		if p < 0 || p >= l.n {
			return 0, fmt.Errorf("sim: adversary corrupted invalid process %d", p)
		}
		if l.corrupted[p] {
			if l.strict {
				return 0, fmt.Errorf("sim: adversary re-corrupted process %d in round %d", p, round)
			}
			continue
		}
		l.corrupted[p] = true
		l.numCorr++
	}
	if l.numCorr > l.t {
		return 0, fmt.Errorf("%w: %d > t=%d in round %d", ErrBudget, l.numCorr, l.t, round)
	}

	ndrop := 0
	for _, idx := range act.Drop {
		if idx < 0 || idx >= len(outbox) {
			return 0, fmt.Errorf("sim: adversary dropped invalid outbox index %d", idx)
		}
		if dropped[idx] {
			if l.strict {
				return 0, fmt.Errorf("sim: adversary dropped outbox index %d twice in round %d", idx, round)
			}
			continue
		}
		m := outbox[idx]
		if !l.corrupted[m.From] && !l.corrupted[m.To] {
			return 0, fmt.Errorf("%w: %s in round %d", ErrIllegalOmission, m, round)
		}
		dropped[idx] = true
		ndrop++
		if onDrop != nil {
			onDrop(idx)
		}
	}
	return ndrop, nil
}
