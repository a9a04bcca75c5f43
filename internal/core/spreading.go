package core

import (
	"omicon/internal/bitset"
	"omicon/internal/sim"
)

// linkState is Algorithm 3's state across epochs: the process's links in
// the operative flood, whose disregards persist, and the per-epoch
// deduplication scratch, packed as bit-vectors and reused across epochs so
// that a steady-state spreading round's only allocations are the round's
// one exact-fit payload slice and its boxing (payloads are immutable once
// sent, per the Exchange contract, so they cannot be pooled).
type linkState struct {
	links Links

	// Per-epoch scratch, cleared at the top of groupBitsSpreading.
	present *bitset.Set  // groups whose counts are known this epoch
	entries []GroupCount // entries[g] valid iff present.Contains(g)
	sent    *bitset.Set  // groups already gossiped, the same on every live link
}

func newLinkState(p Params, id int) *linkState {
	return &linkState{
		links:   NewLinks(p.Graph, id),
		present: bitset.New(p.Decomp.NumGroups()),
		entries: make([]GroupCount, p.Decomp.NumGroups()),
		sent:    bitset.New(p.Decomp.NumGroups()),
	}
}

// groupBitsSpreading implements Algorithm 3: GossipRounds rounds of
// deduplicated flooding of the per-group operative counts along the
// Theorem-4 graph. A process that receives fewer than OperativeThreshold
// messages from non-disregarded neighbors in some round becomes inoperative
// and idles through the remaining rounds (staying in lockstep). It returns
// the summed ones/zeros across all known groups and the operative status.
func groupBitsSpreading(env sim.Env, p Params, ls *linkState, myGroup, gOnes, gZeros int) (ones, zeros int, operative bool) {
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

	take := func(sm SpreadMsg) {
		for _, e := range sm.Entries {
			if e.Group < 0 || e.Group >= numGroups || present.Contains(e.Group) {
				continue
			}
			present.Add(e.Group)
			ls.entries[e.Group] = e
		}
	}
	operative = true
	for r := 0; r < p.GossipRounds; r++ {
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
		if !FloodRound(env, &ls.links, SpreadMsg{Entries: fresh}, p.OperativeThreshold, take) {
			operative = false
			sim.Idle(env, p.GossipRounds-r-1)
			break
		}
	}

	present.ForEach(func(g int) bool {
		ones += ls.entries[g].Ones
		zeros += ls.entries[g].Zeros
		return true
	})
	return ones, zeros, operative
}
