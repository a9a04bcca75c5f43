package main

import (
	"fmt"
	"strings"

	"omicon/internal/sim"
)

// corruption is one corruption with the round it happened in.
type corruption struct {
	Round   int
	Process int
}

// digest summarizes one recorded transcript: totals, omission pressure,
// the corruption timeline, decision latency and activity segmentation.
type digest struct {
	Rounds         int
	Messages       int
	Bits           int64
	Dropped        int
	DropRate       float64
	Corruptions    []corruption
	FirstDecision  int // round of the first observed decision, -1 if none
	AllTerminated  int // round when every process had terminated, -1 if never observed
	PeakDropRound  int
	PeakDropCount  int
	ActivityPhases []phase
}

// phase is a maximal run of rounds with similar message volume,
// segmenting the execution into its protocol stages (aggregation rounds,
// gossip rounds, broadcast spikes).
type phase struct {
	From, To int // inclusive round range
	Messages int // per-round volume representative
}

// analyze digests a transcript.
func analyze(tr *sim.Transcript) *digest {
	s := &digest{FirstDecision: -1, AllTerminated: -1, PeakDropRound: -1}
	if tr == nil {
		return s
	}
	s.Rounds = len(tr.Rounds)
	for _, r := range tr.Rounds {
		s.Messages += r.Messages
		s.Bits += r.Bits
		s.Dropped += r.Dropped
		for _, p := range r.Corrupted {
			s.Corruptions = append(s.Corruptions, corruption{Round: r.Round, Process: p})
		}
		if s.FirstDecision < 0 && r.Decided > 0 {
			s.FirstDecision = r.Round
		}
		if s.AllTerminated < 0 && r.Terminated == tr.N {
			s.AllTerminated = r.Round
		}
		if r.Dropped > s.PeakDropCount {
			s.PeakDropCount = r.Dropped
			s.PeakDropRound = r.Round
		}
	}
	if s.Messages > 0 {
		s.DropRate = float64(s.Dropped) / float64(s.Messages)
	}
	s.ActivityPhases = segment(tr)
	return s
}

// segment groups consecutive rounds whose message volume stays within a
// factor of two of the segment's first round.
func segment(tr *sim.Transcript) []phase {
	var phases []phase
	for _, r := range tr.Rounds {
		n := len(phases)
		if n > 0 && similar(phases[n-1].Messages, r.Messages) {
			phases[n-1].To = r.Round
			continue
		}
		phases = append(phases, phase{From: r.Round, To: r.Round, Messages: r.Messages})
	}
	return phases
}

func similar(a, b int) bool {
	if a == b {
		return true
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 {
		return hi == 0
	}
	return hi <= 2*lo
}

// report renders the digest as a human-readable multi-line string.
func (s *digest) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds          : %d\n", s.Rounds)
	fmt.Fprintf(&b, "messages        : %d (%d bits)\n", s.Messages, s.Bits)
	fmt.Fprintf(&b, "omissions       : %d dropped (%.2f%% of traffic)", s.Dropped, 100*s.DropRate)
	if s.PeakDropRound >= 0 {
		fmt.Fprintf(&b, ", peak %d in round %d", s.PeakDropCount, s.PeakDropRound)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "corruptions     : %d", len(s.Corruptions))
	if len(s.Corruptions) > 0 {
		b.WriteString(" at")
		for i, c := range s.Corruptions {
			if i == 8 {
				fmt.Fprintf(&b, " ... (+%d more)", len(s.Corruptions)-i)
				break
			}
			fmt.Fprintf(&b, " p%d@r%d", c.Process, c.Round)
		}
	}
	b.WriteString("\n")
	b.WriteString(roundLine("first decision  : ", s.FirstDecision))
	b.WriteString(roundLine("all terminated  : ", s.AllTerminated))
	fmt.Fprintf(&b, "activity phases : %d\n", len(s.ActivityPhases))
	for _, p := range s.ActivityPhases {
		fmt.Fprintf(&b, "  rounds %4d-%-4d ~%d msgs/round\n", p.From, p.To, p.Messages)
	}
	return b.String()
}

// roundLine renders one "label: round r" line; r < 0 means the event is
// not in the transcript.
func roundLine(label string, r int) string {
	if r < 0 {
		return label + "not observed in-transcript\n"
	}
	return fmt.Sprintf("%sround %d\n", label, r)
}
