package core

import (
	"omicon/internal/bitset"
	"omicon/internal/graph"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// Links is one process's side of the operative flood that Algorithm 3's
// spreading and Algorithm 4's flooding stages (lines 9-12) both run: its
// neighbors in the Theorem-4 graph and the links it has disregarded for
// good ("refutes to accept messages from them in any future round"), plus
// per-round scratch reused for the whole run, so that a round allocates
// nothing beyond the caller's payload.
type Links struct {
	neighbors   []int
	disregarded *bitset.Set // pids whose links are permanently cut
	heard       *bitset.Set // pids heard this round
	live        []int       // reused: this round's non-disregarded neighbors
}

// NewLinks returns process id's links in g, none disregarded yet. It
// returns a value so that a caller can keep it inside its own state; use
// it through a pointer, since the scratch must not be shared.
func NewLinks(g *graph.Graph, id int) Links {
	neighbors := g.Neighbors(id)
	return Links{
		neighbors:   neighbors,
		disregarded: bitset.New(g.N()),
		heard:       bitset.New(g.N()),
		live:        make([]int, 0, len(neighbors)),
	}
}

// Disregards reports whether the link to q is cut for good.
func (l *Links) Disregards(q int) bool { return l.disregarded.Contains(q) }

// FloodRound runs one round of the operative flood (Lemmas 5-8): it sends
// msg on every live link, hands take each payload of type M received from
// a live link, disregards every live link that stayed silent, and reports
// whether at least threshold links were heard — the process stays
// operative. A round is one Send over the live links; with every link cut
// the round is idle.
func FloodRound[M wire.Marshaler](env sim.Env, l *Links, msg M, threshold int, take func(M)) bool {
	live := l.live[:0]
	for _, q := range l.neighbors {
		if !l.disregarded.Contains(q) {
			live = append(live, q)
		}
	}
	if len(live) > 0 {
		env.Send(msg, live)
	}
	in := env.Exchange(nil)

	// Every neighbor sends at most one message per round, so the
	// messages taken count the distinct links heard.
	heard := l.heard
	heard.Clear()
	received := 0
	for _, m := range in {
		pm, ok := m.Payload.(M)
		if !ok || l.disregarded.Contains(m.From) {
			continue
		}
		heard.Add(m.From)
		received++
		take(pm)
	}
	for _, q := range live {
		if !heard.Contains(q) {
			l.disregarded.Add(q)
		}
	}
	return received >= threshold
}
