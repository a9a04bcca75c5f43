package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"omicon/internal/bitset"
	"omicon/internal/partition"
	"omicon/internal/rng"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// This file keeps the per-link and per-recipient message construction that
// groupBitsSpreading and GroupRelay round 3 replaced, as reference
// implementations, and checks that the one-payload-per-round code puts
// byte-identical messages on every link.

// sendRecorder is an Env that records what process id stages, one message
// per target in staging order.
type sendRecorder struct {
	sim.Env
	id   int
	sent []sim.Message
}

func (r *sendRecorder) Send(payload wire.Marshaler, to []int) {
	for _, q := range to {
		r.sent = append(r.sent, sim.Msg(r.id, q, payload))
	}
}

// refLinkState is linkState with one dedup set per link.
type refLinkState struct {
	neighbors   []int
	disregarded *bitset.Set
	present     *bitset.Set
	entries     []GroupCount
	sentTo      []*bitset.Set // per-neighbor dedup, indexed like neighbors
}

func newRefLinkState(p Params, id int) *refLinkState {
	ls := &refLinkState{
		neighbors:   p.Graph.Neighbors(id),
		disregarded: bitset.New(p.N),
		present:     bitset.New(p.Decomp.NumGroups()),
		entries:     make([]GroupCount, p.Decomp.NumGroups()),
	}
	ls.sentTo = make([]*bitset.Set, len(ls.neighbors))
	for i := range ls.sentTo {
		ls.sentTo[i] = bitset.New(p.Decomp.NumGroups())
	}
	return ls
}

// refGroupBitsSpreading is Algorithm 3 with the dedup of the paper's text:
// per link, "each group's counts travel over each edge at most once".
func refGroupBitsSpreading(env sim.Env, p Params, ls *refLinkState, myGroup, gOnes, gZeros int) (operative bool) {
	id := env.ID()
	present := ls.present
	present.Clear()
	present.Add(myGroup)
	ls.entries[myGroup] = GroupCount{Group: myGroup, Ones: gOnes, Zeros: gZeros}
	for _, sent := range ls.sentTo {
		sent.Clear()
	}

	operative = true
	for r := 0; r < p.GossipRounds; r++ {
		if !operative {
			env.Exchange(nil)
			continue
		}
		var out []sim.Message
		for qi, q := range ls.neighbors {
			if ls.disregarded.Contains(q) {
				continue
			}
			sent := ls.sentTo[qi]
			var fresh []GroupCount
			present.ForEach(func(g int) bool {
				if p.NoGossipDedup || !sent.Contains(g) {
					fresh = append(fresh, ls.entries[g])
					sent.Add(g)
				}
				return true
			})
			out = append(out, sim.Msg(id, q, SpreadMsg{Entries: fresh}))
		}
		in := env.Exchange(out)

		heard := bitset.New(p.N)
		for _, m := range in {
			sm, ok := m.Payload.(SpreadMsg)
			if !ok || ls.disregarded.Contains(m.From) {
				continue
			}
			heard.Add(m.From)
			for _, e := range sm.Entries {
				if !present.Contains(e.Group) {
					present.Add(e.Group)
					ls.entries[e.Group] = e
				}
			}
		}
		for _, q := range ls.neighbors {
			if !heard.Contains(q) {
				ls.disregarded.Add(q)
			}
		}
		if heard.Count() < p.OperativeThreshold {
			operative = false
		}
	}
	return operative
}

// sentMsg is one message as the adversary saw it in flight.
type sentMsg struct {
	from, to int
	enc      []byte
}

// linkOmitter corrupts a seeded random eighth of the processes in round 1
// and then omits each of their incident messages with probability 0.1, so
// links die in different rounds and some processes fall inoperative. It
// records every outbox. Its coins depend only on the (from, to) pattern of
// the outboxes, so two implementations that send the same messages face
// the same omissions.
type linkOmitter struct {
	rnd    *rand.Rand
	rounds [][]sentMsg
}

func (a *linkOmitter) Name() string { return "link-omitter" }

func (a *linkOmitter) Step(v *sim.View) sim.Action {
	var act sim.Action
	if v.Round == 1 {
		act.Corrupt = a.rnd.Perm(v.N)[:v.T]
	}
	bad := append([]bool(nil), v.Corrupted...)
	for _, p := range act.Corrupt {
		bad[p] = true
	}
	round := make([]sentMsg, len(v.Outbox))
	for i, m := range v.Outbox {
		round[i] = sentMsg{m.From, m.To, wire.Encode(m.Payload)}
		if (bad[m.From] || bad[m.To]) && a.rnd.Float64() < 0.1 {
			act.Drop = append(act.Drop, i)
		}
	}
	a.rounds = append(a.rounds, round)
	return act
}

// runSpreadingEpochs runs three consecutive GroupBitsSpreading calls per
// process — the disregarded set persists across them, the dedup state does
// not — under a fresh linkOmitter, and returns what was sent.
func runSpreadingEpochs(t *testing.T, p Params, seed uint64, reference bool) [][]sentMsg {
	t.Helper()
	const epochs = 3
	adv := &linkOmitter{rnd: rng.Unmetered(seed, 0x11e)}
	_, err := sim.Run(sim.Config{N: p.N, T: p.N / 8, Inputs: make([]int, p.N), Seed: seed, Adversary: adv},
		func(env sim.Env, _ int) (int, error) {
			id := env.ID()
			g := p.Decomp.GroupOf(id)
			ls, ref := newLinkState(p, id), newRefLinkState(p, id)
			for e := 0; e < epochs; e++ {
				var operative bool
				if reference {
					operative = refGroupBitsSpreading(env, p, ref, g, g+e, 2*g+1)
				} else {
					_, _, operative = groupBitsSpreading(env, p, ls, g, g+e, 2*g+1)
				}
				if !operative {
					// As in Algorithm 1: inoperative for good.
					sim.Idle(env, (epochs-1-e)*p.GossipRounds)
					break
				}
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return adv.rounds
}

// TestSpreadingMatchesPerLinkReference drives the single-sent-set gossip
// and the per-link reference under the same seeded link omissions: every
// round must put the same bytes on the same links.
func TestSpreadingMatchesPerLinkReference(t *testing.T) {
	for _, tc := range []struct {
		n       int
		noDedup bool
	}{{64, false}, {256, false}, {64, true}} {
		t.Run(fmt.Sprintf("n=%d/noDedup=%v", tc.n, tc.noDedup), func(t *testing.T) {
			p, err := Prepare(tc.n, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.NoGossipDedup = tc.noDedup
			for seed := uint64(1); seed <= 3; seed++ {
				got := runSpreadingEpochs(t, p, seed, false)
				want := runSpreadingEpochs(t, p, seed, true)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d rounds, reference ran %d", seed, len(got), len(want))
				}
				sentBytes := 0
				for r := range want {
					if len(got[r]) != len(want[r]) {
						t.Fatalf("seed %d round %d: %d messages, reference sent %d", seed, r+1, len(got[r]), len(want[r]))
					}
					for i, w := range want[r] {
						g := got[r][i]
						if g.from != w.from || g.to != w.to || !bytes.Equal(g.enc, w.enc) {
							t.Fatalf("seed %d round %d message %d: got %d->%d %x, reference %d->%d %x",
								seed, r+1, i, g.from, g.to, g.enc, w.from, w.to, w.enc)
						}
						sentBytes += len(w.enc)
					}
				}
				if sentBytes == 0 {
					t.Fatalf("seed %d: nothing was gossiped", seed)
				}
			}
		})
	}
}

// TestMergedCountsMatchPerRecipientReference checks GroupRelay round 3's
// one-message-per-bag runs against the per-recipient construction, for
// every group width up to 70, every layer, and every transmitter.
func TestMergedCountsMatchPerRecipientReference(t *testing.T) {
	r := rng.Unmetered(7, 0x3b)
	const base = 1000 // groups are contiguous blocks that need not start at 0
	for w := 1; w <= 70; w++ {
		tree := partition.NewTree(w)
		merged := make([]mergedBag, (w-1)>>1+1)
		members := make([]int, w)
		for i := range members {
			members[i] = base + i
		}
		for idx := 0; idx < w; idx++ {
			id := base + idx
			gi := groupInfo{members: members, myIdx: idx, base: base}
			var others []int
			for m := base; m < base+w; m++ {
				if m != id {
					others = append(others, m)
				}
			}
			for j := 2; j <= tree.Layers(); j++ {
				for b := range merged {
					merged[b] = mergedBag{
						left:  sidePair{present: r.IntN(4) > 0, ones: r.IntN(300), zeros: r.IntN(300)},
						right: sidePair{present: r.IntN(4) > 0, ones: r.IntN(300), zeros: r.IntN(300)},
					}
				}
				var want []sim.Message
				for _, q := range others {
					want = append(want, sim.Msg(id, q, bagToMsg(merged[tree.BagOf(j, q-base)])))
				}
				rec := &sendRecorder{id: id}
				sendMergedCounts(rec, tree, j, gi, merged)
				got := rec.sent
				if len(got) != len(want) {
					t.Fatalf("w=%d id=%d layer %d: %d messages, reference sent %d", w, id, j, len(got), len(want))
				}
				for i := range want {
					if got[i].From != want[i].From || got[i].To != want[i].To || got[i].Bits() != want[i].Bits() ||
						!bytes.Equal(wire.Encode(got[i].Payload), wire.Encode(want[i].Payload)) {
						t.Fatalf("w=%d id=%d layer %d message %d: got %v %+v, reference %v %+v",
							w, id, j, i, got[i], got[i].Payload, want[i], want[i].Payload)
					}
				}
			}
		}
	}
}
