package core

import (
	"omicon/internal/partition"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// groupInfo is the static group context of one process: the paper's W_ℓ,
// derived locally from the sqrt(n)-decomposition.
type groupInfo struct {
	index   int   // ℓ: this process's group
	members []int // global ids, increasing
	myIdx   int   // position within members
	base    int   // members[0]: groups are contiguous ascending blocks
}

func newGroupInfo(p Params, id int) groupInfo {
	gi := groupInfo{
		index:   p.Decomp.GroupOf(id),
		myIdx:   p.Decomp.IndexOf(id),
		members: p.Decomp.Group(p.Decomp.GroupOf(id)),
	}
	gi.base = gi.members[0]
	return gi
}

// local returns m's index within the group and whether m is a member.
// Decomposition groups are contiguous ascending blocks (partition.Blocks),
// so membership is a range check instead of a map lookup.
func (gi groupInfo) local(m int) (int, bool) {
	i := m - gi.base
	if i < 0 || i >= len(gi.members) {
		return 0, false
	}
	return i, true
}

// sidePair is one child bag's operative counts, as merged by a transmitter.
type sidePair struct {
	present     bool
	ones, zeros int
}

// mergedBag is the up-to-four logically different values a transmitter
// accumulates for one bag: the left and right child counts.
type mergedBag struct {
	left, right sidePair
}

// groupBitsAggregation implements Algorithm 2. Every process participates
// in its group's tree for exactly 3*(Layers-1) rounds: operative processes
// act as sources and transmitters, inoperative ones (per the GroupRelay
// specification) keep serving as transmitters. It returns the operative
// counts of ones and zeros for the whole group (meaningful only while the
// process remains operative) and the updated operative status.
func groupBitsAggregation(env sim.Env, p Params, gi groupInfo, operative bool, b int) (gOnes, gZeros int, stillOperative bool) {
	w := len(gi.members)
	need := w/2 + 1 // strict majority of the group, self included

	// Stage 1 (lines 1-4): singleton bags initialize the counts.
	myOnes, myZeros := 0, 0
	if operative {
		if b == 1 {
			myOnes = 1
		} else {
			myZeros = 1
		}
	}

	// Per-layer scratch, reused across layers. merged is dense, indexed by
	// bag: BagOf(j, m) = m>>(j-1), so for every layer j >= 2 the bag
	// indices fit in [0, (w-1)>>1]. The zero mergedBag means "nothing
	// heard for this bag", exactly what an untouched entry should say.
	merged := make([]mergedBag, (w-1)>>1+1)
	heardFrom := make([]int, 0, w-1)

	layers := p.Tree.Layers()
	for j := 2; j <= layers; j++ {
		// --- GroupRelay round 1: sources relay child-bag counts. ---
		if operative {
			sendToOthers(env, SourceCountsMsg{Ones: myOnes, Zeros: myZeros}, gi.members, gi.myIdx)
		}
		in := env.Exchange(nil)

		// Transmitter role: merge the received counts per bag of
		// layer j. The inbox is sorted by sender, so "choose
		// arbitrarily" resolves deterministically to the
		// lowest-sender value; a process's own source counts merge
		// first of all (it certainly heard itself).
		for i := range merged {
			merged[i] = mergedBag{}
		}
		heardFrom = heardFrom[:0] // sources whose round-1 message arrived
		record := func(senderIdx, ones, zeros int) {
			mb := &merged[p.Tree.BagOf(j, senderIdx)]
			side := &mb.right
			if p.Tree.IsLeftChild(j, senderIdx) {
				side = &mb.left
			}
			if !side.present {
				*side = sidePair{present: true, ones: ones, zeros: zeros}
			}
		}
		if operative {
			record(gi.myIdx, myOnes, myZeros)
		}
		for _, m := range in {
			sc, ok := m.Payload.(SourceCountsMsg)
			if !ok {
				continue
			}
			sIdx, member := gi.local(m.From)
			if !member {
				continue
			}
			record(sIdx, sc.Ones, sc.Zeros)
			heardFrom = append(heardFrom, m.From)
		}

		// --- GroupRelay round 2: each transmitter confirms receipt to
		// exactly the sources it heard. Sources short of a strict group
		// majority of confirmations become inoperative — Lemma 1's
		// intersection argument requires the acknowledgment to certify
		// "your counts reached me", so acks are per-source. ---
		env.Send(AckMsg{}, heardFrom)
		in = env.Exchange(nil)
		acks := 0
		if operative {
			acks++ // a source always hears itself
		}
		for _, m := range in {
			if _, ok := m.Payload.(AckMsg); ok {
				if _, member := gi.local(m.From); member {
					acks++
				}
			}
		}
		if operative && acks < need {
			operative = false
		}

		// --- GroupRelay round 3: transmitters return the merged
		// counts, tailored to each recipient's bag. ---
		sendMergedCounts(env, p.Tree, j, gi, merged)
		in = env.Exchange(nil)

		// Source role: count notifications and adopt the first
		// present value per side (own merged view first).
		notif := 1 // self: a process always knows its own merged view
		mb := merged[p.Tree.BagOf(j, gi.myIdx)]
		left, right := mb.left, mb.right
		for _, m := range in {
			mc, ok := m.Payload.(MergedCountsMsg)
			if !ok {
				continue
			}
			if _, member := gi.local(m.From); !member {
				continue
			}
			notif++
			if !left.present && mc.HasLeft {
				left = sidePair{present: true, ones: mc.LeftOnes, zeros: mc.LeftZeros}
			}
			if !right.present && mc.HasRight {
				right = sidePair{present: true, ones: mc.RightOnes, zeros: mc.RightZeros}
			}
		}
		if operative && notif < need {
			operative = false
		}
		myOnes = left.ones + right.ones
		myZeros = left.zeros + right.zeros
	}
	return myOnes, myZeros, operative
}

// sendMergedCounts stages a transmitter's round-3 messages of layer j:
// every other member of the group gets the merged counts of its own bag.
// Members are ascending and BagOf is monotone in the member index, so the
// members sharing a bag are a contiguous run, and each run shares one
// payload — sent around the transmitter itself when the run holds it.
func sendMergedCounts(env sim.Env, tree partition.Tree, j int, gi groupInfo, merged []mergedBag) {
	members := gi.members
	for lo := 0; lo < len(members); {
		bag := tree.BagOf(j, lo)
		hi := lo + 1
		for hi < len(members) && tree.BagOf(j, hi) == bag {
			hi++
		}
		run := members[lo:hi]
		if me := gi.myIdx - lo; me < 0 || me >= len(run) {
			env.Send(bagToMsg(merged[bag]), run)
		} else if len(run) > 1 {
			sendToOthers(env, bagToMsg(merged[bag]), run, me)
		}
		lo = hi
	}
}

// sendToOthers stages payload to every id in ids but ids[self]: two Sends
// over the halves around it, so no target list is built.
func sendToOthers(env sim.Env, payload wire.Marshaler, ids []int, self int) {
	env.Send(payload, ids[:self])
	env.Send(payload, ids[self+1:])
}

func bagToMsg(mb mergedBag) MergedCountsMsg {
	return MergedCountsMsg{
		HasLeft:    mb.left.present,
		LeftOnes:   mb.left.ones,
		LeftZeros:  mb.left.zeros,
		HasRight:   mb.right.present,
		RightOnes:  mb.right.ones,
		RightZeros: mb.right.zeros,
	}
}
