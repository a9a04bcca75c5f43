package core

import (
	"omicon/internal/bitset"
	"omicon/internal/sim"
)

// linkState is the cross-epoch gossip bookkeeping of Algorithm 3: the
// neighbor set V_p in the Theorem-4 graph and the permanently disregarded
// links ("refutes to accept messages from them in any future round of the
// algorithm GroupBitsSpreading"). It also owns the per-epoch gossip
// scratch, packed as bit-vectors and reused across epochs so that a
// steady-state gossip round's only allocations are the round's one
// exact-fit payload slice and its boxing (payloads are immutable once
// sent, per the Exchange contract, so they cannot be pooled).
type linkState struct {
	neighbors   []int
	disregarded *bitset.Set // pids whose links are permanently cut

	// Per-epoch scratch, cleared at the top of groupBitsSpreading.
	present *bitset.Set   // groups whose counts are known this epoch
	entries []GroupCount  // entries[g] valid iff present.Contains(g)
	sent    *bitset.Set   // groups already gossiped, the same on every live link
	heard   *bitset.Set   // pids heard this round
	live    []int         // reused: this round's non-disregarded neighbors
	out     []sim.Message // reused outbox (backing reusable after Exchange)
}

func newLinkState(p Params, id int) *linkState {
	neighbors := p.Graph.Neighbors(id)
	return &linkState{
		neighbors:   neighbors,
		disregarded: bitset.New(p.N),
		present:     bitset.New(p.Decomp.NumGroups()),
		entries:     make([]GroupCount, p.Decomp.NumGroups()),
		sent:        bitset.New(p.Decomp.NumGroups()),
		heard:       bitset.New(p.N),
		live:        make([]int, 0, len(neighbors)),
		out:         make([]sim.Message, 0, len(neighbors)),
	}
}

// groupBitsSpreading implements Algorithm 3: GossipRounds rounds of
// deduplicated flooding of the per-group operative counts along the
// Theorem-4 graph. A process that receives fewer than OperativeThreshold
// messages from non-disregarded neighbors in some round becomes inoperative
// and idles through the remaining rounds (staying in lockstep). It returns
// the summed ones/zeros across all known groups and the operative status.
func groupBitsSpreading(env sim.Env, p Params, ls *linkState, myGroup, gOnes, gZeros int) (ones, zeros int, operative bool) {
	id := env.ID()
	numGroups := p.Decomp.NumGroups()

	present := ls.present
	present.Clear()
	present.Add(myGroup)
	ls.entries[myGroup] = GroupCount{Group: myGroup, Ones: gOnes, Zeros: gZeros}

	// sent deduplicates within this epoch: each group's counts travel over
	// each edge at most once. One set serves every link. A link is cut for
	// good once its neighbor is disregarded, and an inoperative process
	// never sends again, so a neighbor still live in some round was sent to
	// in every earlier round of the epoch: all live links have carried
	// exactly the groups present at the previous send.
	sent := ls.sent
	sent.Clear()

	operative = true
	for r := 0; r < p.GossipRounds; r++ {
		if !operative {
			env.Exchange(nil)
			continue
		}
		live := ls.live[:0]
		for _, q := range ls.neighbors {
			if !ls.disregarded.Contains(q) {
				live = append(live, q)
			}
		}
		// fresh = present \ sent (all of present under NoGossipDedup); the
		// popcount sizes the payload exactly before a single
		// ascending-order fill.
		var fresh []GroupCount
		nf := present.DifferenceCount(sent)
		if p.NoGossipDedup {
			nf = present.Count()
		}
		if nf > 0 {
			fresh = make([]GroupCount, 0, nf)
			present.ForEach(func(g int) bool {
				if p.NoGossipDedup || !sent.Contains(g) {
					fresh = append(fresh, ls.entries[g])
				}
				return true
			})
			sent.CopyFrom(present)
		}
		// An empty SpreadMsg is the heartbeat the disregard rule needs:
		// silence means omission, not idleness.
		out := sim.AppendBroadcast(ls.out[:0], id, SpreadMsg{Entries: fresh}, live)
		ls.out = out // keep the grown capacity
		in := env.Exchange(out)

		heard := ls.heard
		heard.Clear()
		for _, m := range in {
			sm, ok := m.Payload.(SpreadMsg)
			if !ok || ls.disregarded.Contains(m.From) {
				continue
			}
			heard.Add(m.From)
			for _, e := range sm.Entries {
				if e.Group < 0 || e.Group >= numGroups || present.Contains(e.Group) {
					continue
				}
				present.Add(e.Group)
				ls.entries[e.Group] = e
			}
		}
		// The received tally is a popcount: every neighbor sends at most
		// one SpreadMsg per round, so distinct heard senders = messages
		// received from non-disregarded neighbors.
		received := heard.Count()
		for _, q := range ls.neighbors {
			if !ls.disregarded.Contains(q) && !heard.Contains(q) {
				ls.disregarded.Add(q)
			}
		}
		if received < p.OperativeThreshold {
			operative = false
		}
	}

	present.ForEach(func(g int) bool {
		ones += ls.entries[g].Ones
		zeros += ls.entries[g].Zeros
		return true
	})
	return ones, zeros, operative
}
