package sim

import (
	"omicon/internal/metrics"
	"omicon/internal/rng"
	"omicon/internal/trace"
)

// CommPhase is the communication phase of Section 2's round, from "this
// round's outbox is complete" to "every inbox is carved": accounting, the
// canonical order, the View, Adversary.Step, Legality and the carve. It is
// the one copy of those rules: the engine embeds it and runs its chunked
// parts on the shard workers, and the TCP coordinator runs it as a single
// chunk through Communicate.
//
// The driver hands over the outbox with its bit total, whether it is in
// canonical order, and its messages per (chunk, receiver). The chunked parts
// (View fill, fill) split the processes into k contiguous pid ranges, the
// ±1-balanced blocks of partition.Blocks, and the outbox into the k index
// ranges their senders wrote, which the sort keeps. Chunk w touches only its
// own ranges and merges run in chunk order, so the chunks of a part may run
// in parallel and every output is identical at any k. A warm phase
// allocates nothing.
type CommPhase struct {
	n        int
	adv      Adversary
	tr       *trace.Tracer
	fast     bool // NoFaults with tracing off: account and carve only
	counters *metrics.Counters

	// Per-process state the driver owns and updates between phases. A
	// process that is not alive has terminated (or crashed): it is
	// Terminated in the View and its inbox is discarded.
	alive     []bool
	decisions []int
	// Node-local state only the engine can see; where nil, the View's
	// entries stay zero.
	snapshots []any
	sources   []*rng.Source

	legality Legality
	view     View
	roundMemory

	outbox   []Message
	dropped  []bool // this round's drop mask; nil when nothing dropped
	drops    []int  // the indices the action listed, unmarked after the fill
	cuts     []int  // chunk w's pids are [cuts[w], cuts[w+1])
	chunks   []int  // chunk w's outbox indices are [chunks[w], chunks[w+1]), set by the driver
	counts   []int  // n per chunk: messages per receiver, less drops, then fill cursors
	inStarts []int  // n+1 receiver-major carve offsets into arena
	inboxes  [][]Message
}

// roundMemory is what a phase grows to the size of its largest round. Init
// starts it empty; the engine instead hands over a pooled crew's (coro.go).
type roundMemory struct {
	arena      []Message
	droppedBuf []bool // all false between phases
	orderer    Orderer[Message]
}

// Init sets c up for an n-process execution with corruption budget t
// against adv, split into k chunks. alive and decisions are the driver's
// per-process state, read at every phase; counters receives the message
// and bit totals; an enabled tr receives one corrupt event per takeover
// (and turns the NoFaults fast path off).
func (c *CommPhase) Init(n, t, k int, adv Adversary, tr *trace.Tracer, counters *metrics.Counters, alive []bool, decisions []int) {
	_, benign := adv.(NoFaults)
	*c = CommPhase{
		n: n, adv: adv, tr: tr,
		fast:      benign && !tr.Enabled(),
		counters:  counters,
		alive:     alive,
		decisions: decisions,
		legality:  Legality{n: n, t: t, corrupted: make([]bool, n)},
		cuts:      make([]int, k+1),
		chunks:    make([]int, k+1),
		counts:    make([]int, k*n),
		inStarts:  make([]int, n+1),
		inboxes:   make([][]Message, n),
	}
	// partition.Blocks' split: the first n%k chunks take one extra pid.
	for w := 0; w < k; w++ {
		c.cuts[w+1] = c.cuts[w] + n/k
		if w < n%k {
			c.cuts[w+1]++
		}
	}
	if !c.fast {
		// Reused every round: the aliasing contract documented on View.
		c.view = View{
			N: n, T: t,
			Corrupted:   make([]bool, n),
			Terminated:  make([]bool, n),
			Decisions:   make([]int, n),
			Snapshots:   make([]any, n),
			RandomCalls: make([]int64, n),
			RandomBits:  make([]int64, n),
		}
	}
}

// Legality is the phase's record of the corrupted set, for reading it and
// for faults a driver absorbs outside any adversary action.
func (c *CommPhase) Legality() *Legality { return &c.legality }

// Inbox returns the messages carved for process p by the last phase,
// From-sorted; valid until the next phase.
func (c *CommPhase) Inbox(p int) []Message { return c.inboxes[p] }

// Communicate runs one communication phase over out as a single chunk and
// returns the number of messages the adversary dropped. out must group the
// senders in ascending pid order, as both drivers gather it, with every
// target in [0, n), and is sorted in place. An illegal adversary action is
// returned as Legality's error, and the phase ends there.
func (c *CommPhase) Communicate(round int, out []Message) (int, error) {
	counts := c.counts[:c.n]
	clear(counts)
	var bits int64
	for _, m := range out {
		bits += m.Bits()
		counts[m.To]++
	}
	c.chunks[1] = len(out)
	ndrop := 0
	if c.open(round, out, bits, false) {
		c.viewChunk(0)
		var err error
		if ndrop, err = c.judge(); err != nil {
			return 0, err
		}
	}
	c.cursors()
	c.fillChunk(0)
	c.unmark()
	return ndrop, nil
}

// open starts a phase over out, whose messages carry bits in total; the
// driver has set the chunk ranges and the counts. It accounts the messages.
// Unless the fast path applies it also sorts out into canonical order, when
// ordered does not say it holds already, readies the View, and reports that
// the View and judge parts run. The fast path may skip them: nothing
// observes the order, nothing can be dropped, no View is read — and out
// arrives sender-grouped ascending, so each inbox still carves From-sorted
// with ties in send order, exactly what the canonical path delivers.
func (c *CommPhase) open(round int, out []Message, bits int64, ordered bool) bool {
	c.outbox = out
	c.counters.AddMessages(int64(len(out)), bits)
	c.dropped = nil
	if c.fast {
		return false
	}
	if !ordered {
		c.orderer.Sort(out, c.n)
	}
	if len(c.droppedBuf) < len(out) {
		c.droppedBuf = make([]bool, max(len(out), 2*len(c.droppedBuf)))
	}
	c.view.Round = round
	c.view.Outbox = out
	return true
}

// viewChunk fills chunk w's pid range of the View. Every process is parked
// or done, so reading its snapshot and random source is safe.
func (c *CommPhase) viewChunk(w int) {
	v := &c.view
	lo, hi := c.cuts[w], c.cuts[w+1]
	copy(v.Corrupted[lo:hi], c.legality.corrupted[lo:hi])
	copy(v.Decisions[lo:hi], c.decisions[lo:hi])
	for p := lo; p < hi; p++ {
		v.Terminated[p] = !c.alive[p]
	}
	if c.snapshots != nil {
		copy(v.Snapshots[lo:hi], c.snapshots[lo:hi])
	}
	if c.sources != nil {
		for p := lo; p < hi; p++ {
			v.RandomCalls[p] = c.sources[p].Calls()
			v.RandomBits[p] = c.sources[p].BitsDrawn()
		}
	}
}

// judge consults the adversary on the filled View and applies its action
// through Legality — inherently serial, the corrupted set being stateful —
// into the all-false drop mask, uncounting each dropped message. It returns
// the number of dropped messages; an error ends the execution. Every mark
// is an index the action listed, so unmark clears them however the phase
// ends, also from the engine's shutdown after an error or a panic.
func (c *CommPhase) judge() (int, error) {
	act := c.adv.Step(&c.view)
	drained := c.legality.numCorr
	mask := c.droppedBuf[:len(c.outbox)]
	c.drops = act.Drop
	ndrop, err := c.legality.checkIntoCleared(c.view.Round, c.outbox, act, mask, c.uncount)
	if err != nil {
		return 0, err
	}
	if c.tr.Enabled() {
		// One event per process newly taken over, in action order; Value
		// is the cumulative budget drain. View.Corrupted still holds the
		// set from before the action and is marked as events go out, so a
		// process listed twice is reported once.
		for _, p := range act.Corrupt {
			if c.view.Corrupted[p] {
				continue
			}
			c.view.Corrupted[p] = true
			drained++
			c.tr.Emit(trace.Event{Kind: trace.KindCorrupt, Round: c.view.Round, Proc: p, Value: int64(drained)})
		}
	}
	if ndrop > 0 {
		c.dropped = mask
	}
	return ndrop, nil
}

// uncount takes outbox message idx out of its chunk's receiver count.
func (c *CommPhase) uncount(idx int) {
	w := 0
	for idx >= c.chunks[w+1] {
		w++
	}
	c.counts[w*c.n+c.outbox[idx].To]--
}

// unmark returns the drop mask to all false by clearing only the indices
// the action listed; a rejected action may list some out of range.
func (c *CommPhase) unmark() {
	for _, idx := range c.drops {
		if uint(idx) < uint(len(c.droppedBuf)) {
			c.droppedBuf[idx] = false
		}
	}
	c.drops = nil
}

// cursors turns the per-(chunk, receiver) survivor counts into absolute
// fill cursors, receiver-major and in chunk order within a receiver, and
// grows the reused arena to fit — safe to rewrite here because every
// delivered slice is dead by the time its receiver sends again.
func (c *CommPhase) cursors() {
	n, k := c.n, len(c.cuts)-1
	off := 0
	for p := 0; p < n; p++ {
		c.inStarts[p] = off
		for w := 0; w < k; w++ {
			cnt := c.counts[w*n+p]
			c.counts[w*n+p] = off
			off += cnt
		}
	}
	c.inStarts[n] = off
	if len(c.arena) < off {
		c.arena = make([]Message, max(off, 2*len(c.arena)))
	}
}

// fillChunk places chunk w's survivors at its absolute cursors (disjoint
// across chunks by construction) and publishes the inboxes of its own pids,
// capacity-clamped so a protocol appending to its inbox cannot clobber a
// neighbour's messages. A receiver that is not alive gets no inbox: what
// was placed for it is never read.
func (c *CommPhase) fillChunk(w int) {
	counts := c.counts[w*c.n : (w+1)*c.n]
	dropped := c.dropped
	arena := c.arena
	for idx := c.chunks[w]; idx < c.chunks[w+1]; idx++ {
		if dropped != nil && dropped[idx] {
			continue
		}
		m := c.outbox[idx]
		arena[counts[m.To]] = m
		counts[m.To]++
	}
	for p := c.cuts[w]; p < c.cuts[w+1]; p++ {
		if a, b := c.inStarts[p], c.inStarts[p+1]; c.alive[p] && b > a {
			c.inboxes[p] = arena[a:b:b]
		} else {
			c.inboxes[p] = nil
		}
	}
}
