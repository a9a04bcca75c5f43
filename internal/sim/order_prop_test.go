package sim

import (
	"sort"
	"testing"

	"omicon/internal/rng"
)

// indexPayload tags a message with its position in the original batch so
// stability violations are observable even for duplicate (From, To) pairs.
type indexPayload struct{ i int }

func (p indexPayload) AppendWire(buf []byte) []byte { return buf }

// byEndpoints sorts msgs into canonical (From, To) order with the standard
// library's stable sort — the definition Orderer.Sort is held to.
func byEndpoints(msgs []Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].From != msgs[j].From {
			return msgs[i].From < msgs[j].From
		}
		return msgs[i].To < msgs[j].To
	})
}

// uniformBatch draws m messages with independent uniform endpoints.
func uniformBatch(r interface{ IntN(int) int }, n, m int) []Message {
	msgs := make([]Message, m)
	for i := range msgs {
		msgs[i] = Msg(r.IntN(n), r.IntN(n), indexPayload{i})
	}
	return msgs
}

// TestOrdererMatchesSliceStable is the property-based half of the canonical
// order contract: on randomized batches — including the adversarial shapes
// that tripped counting sorts historically (empty, single sender, all-to-one,
// heavy duplicate endpoints) and the two shapes around the early return
// (already canonical, and canonical but for the last pair) — Orderer.Sort
// must agree element-for-element with sort.SliceStable under the (From, To)
// key, which is the order Drop indices, transcripts and replay are defined
// against. A canonical batch must also leave the sorting scratch
// unallocated: that is what every round of a real trial relies on.
func TestOrdererMatchesSliceStable(t *testing.T) {
	type gen struct {
		name      string
		canonical bool // every batch arrives in (From, To) order
		batch     func(r interface{ IntN(int) int }, n, m int) []Message
	}
	gens := []gen{
		{name: "uniform", batch: uniformBatch},
		{name: "already-canonical", canonical: true, batch: func(r interface{ IntN(int) int }, n, m int) []Message {
			msgs := uniformBatch(r, n, m)
			byEndpoints(msgs)
			return msgs
		}},
		{name: "canonical-with-last-pair-swapped", batch: func(r interface{ IntN(int) int }, n, m int) []Message {
			msgs := uniformBatch(r, n, m)
			byEndpoints(msgs)
			if m >= 2 {
				msgs[m-2], msgs[m-1] = msgs[m-1], msgs[m-2]
			}
			return msgs
		}},
		{name: "single-sender", batch: func(r interface{ IntN(int) int }, n, m int) []Message {
			from := r.IntN(n)
			msgs := make([]Message, m)
			for i := range msgs {
				msgs[i] = Msg(from, r.IntN(n), indexPayload{i})
			}
			return msgs
		}},
		{name: "all-to-one", batch: func(r interface{ IntN(int) int }, n, m int) []Message {
			to := r.IntN(n)
			msgs := make([]Message, m)
			for i := range msgs {
				msgs[i] = Msg(r.IntN(n), to, indexPayload{i})
			}
			return msgs
		}},
		{name: "duplicate-pairs", batch: func(r interface{ IntN(int) int }, n, m int) []Message {
			// Few distinct (From, To) pairs, many duplicates: stability is
			// the whole story here.
			pairs := 1 + r.IntN(4)
			from := make([]int, pairs)
			to := make([]int, pairs)
			for i := range from {
				from[i], to[i] = r.IntN(n), r.IntN(n)
			}
			msgs := make([]Message, m)
			for i := range msgs {
				k := r.IntN(pairs)
				msgs[i] = Msg(from[k], to[k], indexPayload{i})
			}
			return msgs
		}},
	}

	r := rng.Unmetered(0x0edea, 1)
	var shared Orderer[Message]
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			o := &shared
			if g.canonical {
				o = new(Orderer[Message])
				defer func() {
					if cap(o.scratch) != 0 {
						t.Errorf("canonical batches allocated a sorting scratch of %d messages", cap(o.scratch))
					}
				}()
			}
			for trial := 0; trial < 200; trial++ {
				n := 1 + r.IntN(40)
				m := r.IntN(200) // includes the empty batch
				batch := g.batch(r, n, m)

				want := append([]Message(nil), batch...)
				byEndpoints(want)

				got := append([]Message(nil), batch...)
				o.Sort(got, n) // reused orderer: scratch must not leak between batches

				for i := range want {
					if want[i].From != got[i].From || want[i].To != got[i].To ||
						want[i].Payload.(indexPayload).i != got[i].Payload.(indexPayload).i {
						t.Fatalf("trial %d (n=%d m=%d): batch diverged at %d: got (%d->%d #%d), want (%d->%d #%d)",
							trial, n, m, i,
							got[i].From, got[i].To, got[i].Payload.(indexPayload).i,
							want[i].From, want[i].To, want[i].Payload.(indexPayload).i)
					}
				}
			}
		})
	}
}
