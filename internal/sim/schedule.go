package sim

import (
	"cmp"
	"slices"
)

// Drop identifies one omitted message by its endpoints. When a sender
// emits several messages to the same receiver in one round, repeated Drop
// entries consume successive occurrences in outbox order (DropMatcher).
type Drop struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Schedule is the action-level content of an execution: exactly which
// processes the adversary corrupted and which messages it dropped, round
// by round. A Schedule extracted from a version >= 1 Transcript replays an
// execution exactly (ScheduleAdversary); a hand-edited or shrunk Schedule
// replays a neighborhood of it.
type Schedule struct {
	Rounds []ScheduleRound `json:"rounds"`
}

// ScheduleRound is the adversary's recorded action for one round.
type ScheduleRound struct {
	Round   int    `json:"round"`
	Corrupt []int  `json:"corrupt,omitempty"`
	Drops   []Drop `json:"drops,omitempty"`
}

// Schedule extracts the action-level schedule from a transcript; rounds
// without adversarial activity are elided. For version-0 transcripts the
// result carries corruptions only (drop endpoints were not recorded).
func (t *Transcript) Schedule() Schedule {
	var s Schedule
	for _, r := range t.Rounds {
		if len(r.Corrupted) == 0 && len(r.Drops) == 0 {
			continue
		}
		s.Rounds = append(s.Rounds, ScheduleRound{
			Round:   r.Round,
			Corrupt: append([]int(nil), r.Corrupted...),
			Drops:   append([]Drop(nil), r.Drops...),
		})
	}
	return s
}

// NumActions counts the schedule's atomic actions (corruptions + drops).
func (s Schedule) NumActions() int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r.Corrupt) + len(r.Drops)
	}
	return n
}

// DropMatcher is the one decoder of what a recorded Drop names: it turns a
// round's Drops into View.Outbox indices. Repeated drops on a (From, To)
// pair consume the pair's successive occurrences in outbox order, and a
// drop with no occurrence left maps to -1. View.Outbox is sorted by
// (From, To), so each lookup is a binary search to the pair's first index.
// The zero value is ready to use; once warm, Match allocates nothing.
type DropMatcher struct {
	taken []bool // by outbox index; all false between calls
}

// Match appends the outbox index of each of drops, in order, to dst and
// returns the extended slice.
func (m *DropMatcher) Match(dst []int, outbox []Message, drops []Drop) []int {
	if cap(m.taken) < len(outbox) {
		m.taken = make([]bool, len(outbox))
	}
	taken := m.taken[:len(outbox)]
	start := len(dst)
	for _, d := range drops {
		i, _ := slices.BinarySearchFunc(outbox, d, compareEndpoints)
		for i < len(outbox) && taken[i] && compareEndpoints(outbox[i], d) == 0 {
			i++
		}
		if i < len(outbox) && compareEndpoints(outbox[i], d) == 0 {
			taken[i] = true
		} else {
			i = -1
		}
		dst = append(dst, i)
	}
	for _, i := range dst[start:] {
		if i >= 0 {
			taken[i] = false
		}
	}
	return dst
}

// compareEndpoints orders a message against a drop in canonical (From, To)
// order.
func compareEndpoints(m Message, d Drop) int {
	if c := cmp.Compare(m.From, d.From); c != 0 {
		return c
	}
	return cmp.Compare(m.To, d.To)
}

// ScheduleAdversary replays a recorded (or hand-edited, or shrunk)
// schedule. Two modes:
//
//   - Strict: emit the recorded actions verbatim. Replaying a legal
//     schedule against the same protocol and seed reproduces the original
//     execution exactly; replaying an illegal one reproduces the engine's
//     legality error — which is what lets a persisted budget violation be
//     re-demonstrated from its corpus file.
//   - Lenient (default): clamp to legality. Corruptions beyond the budget,
//     re-corruptions and drops whose endpoints are not corrupted are
//     silently skipped. This keeps mutated or shrunk schedules legal by
//     construction, so the engine never aborts while a shrinker or fuzzer
//     explores the schedule's neighborhood.
//
// In both modes drops are matched to the current outbox by DropMatcher;
// a recorded drop with no matching message (the execution diverged from
// the recording) is skipped. A round number the schedule lists twice
// replays its last entry. Step allocates nothing once warm.
//
// The replayer reports the name it was built with, normally the recorded
// adversary's, so a replay's transcript header and trace match the
// original run's.
type ScheduleAdversary struct {
	name   string
	rounds []ScheduleRound // ascending by Round, one entry per round number
	strict bool

	// Reused across Steps: bad is the lenient mode's corrupted set by
	// process id; corrupt and drop back the returned Action.
	bad     []bool
	match   DropMatcher
	corrupt []int
	drop    []int
}

// NewScheduleAdversary returns the lenient replayer of s, reporting name.
func NewScheduleAdversary(name string, s Schedule) *ScheduleAdversary {
	rounds := slices.Clone(s.Rounds)
	slices.SortStableFunc(rounds, func(a, b ScheduleRound) int { return cmp.Compare(a.Round, b.Round) })
	last := rounds[:0]
	for i, r := range rounds {
		if i+1 == len(rounds) || rounds[i+1].Round != r.Round {
			last = append(last, r)
		}
	}
	return &ScheduleAdversary{name: name, rounds: last}
}

// NewStrictScheduleAdversary returns the verbatim replayer of s, reporting
// name.
func NewStrictScheduleAdversary(name string, s Schedule) *ScheduleAdversary {
	a := NewScheduleAdversary(name, s)
	a.strict = true
	return a
}

// Name implements Adversary.
func (a *ScheduleAdversary) Name() string { return a.name }

// Step implements Adversary. The returned slices are reused by the next
// call.
func (a *ScheduleAdversary) Step(v *View) Action {
	i, ok := slices.BinarySearchFunc(a.rounds, v.Round, func(r ScheduleRound, round int) int {
		return cmp.Compare(r.Round, round)
	})
	if !ok {
		return Action{}
	}
	sr := a.rounds[i]
	a.corrupt = a.corrupt[:0]
	a.drop = a.match.Match(a.drop[:0], v.Outbox, sr.Drops)
	if a.strict {
		a.corrupt = append(a.corrupt, sr.Corrupt...)
		a.drop = slices.DeleteFunc(a.drop, func(idx int) bool { return idx < 0 })
		return Action{Corrupt: a.corrupt, Drop: a.drop}
	}

	bad := append(a.bad[:0], v.Corrupted...)
	a.bad = bad
	spent := 0
	for _, c := range bad {
		if c {
			spent++
		}
	}
	for _, p := range sr.Corrupt {
		if p >= 0 && p < v.N && !bad[p] && spent < v.T {
			a.corrupt = append(a.corrupt, p)
			bad[p] = true
			spent++
		}
	}
	a.drop = slices.DeleteFunc(a.drop, func(idx int) bool {
		return idx < 0 || !bad[v.Outbox[idx].From] && !bad[v.Outbox[idx].To]
	})
	return Action{Corrupt: a.corrupt, Drop: a.drop}
}

var _ Adversary = (*ScheduleAdversary)(nil)
