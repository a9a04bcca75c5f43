package sim

// Addressed is implemented by message-like values carried from one process
// to another: the sort key of Orderer. CommPhase orders every round's
// outbox through it, in the engine and on the TCP coordinator alike, so the
// canonical order — which Drop indices, transcripts and replay all depend
// on — is defined once.
type Addressed interface {
	// Endpoints returns the sender and receiver process ids.
	Endpoints() (from, to int)
}

// Orderer sorts batches of addressed messages into the canonical
// (From, To) order using a two-pass stable counting sort: O(m + n) and
// allocation-free once its scratch buffers are warm, versus the
// reflect-driven sort.SliceStable closures it replaced on the engine's
// hot path. A batch that arrives already ordered costs one read pass. The
// zero value is ready to use. An Orderer may be reused across rounds but
// not concurrently.
type Orderer[T Addressed] struct {
	counts  []int
	scratch []T
}

// Sort reorders msgs in place into ascending (from, to) order, preserving
// the relative order of messages with equal endpoints — exactly the order
// sort.SliceStable produced before. All endpoints must lie in [0, n).
func (o *Orderer[T]) Sort(msgs []T, n int) {
	if inOrder(msgs) {
		// A stable sort of a sorted batch is the identity: one read pass,
		// and the scratch below is never allocated. CommPhase learns the
		// order while the outbox is written and skips even that pass.
		return
	}
	if cap(o.counts) < n {
		o.counts = make([]int, n)
	}
	if cap(o.scratch) < len(msgs) {
		o.scratch = make([]T, len(msgs))
	}
	counts := o.counts[:n]
	scratch := o.scratch[:len(msgs)]
	// LSD radix: a stable counting pass on the minor key (to) followed by
	// a stable counting pass on the major key (from) yields (from, to)
	// order with ties in original order.
	countingPass(msgs, scratch, counts, false)
	countingPass(scratch, msgs, counts, true)
}

// inOrder reports whether msgs is already in ascending (from, to) order.
func inOrder[T Addressed](msgs []T) bool {
	if len(msgs) < 2 {
		return true
	}
	pf, pt := msgs[0].Endpoints()
	for _, m := range msgs[1:] {
		f, t := m.Endpoints()
		if f < pf || (f == pf && t < pt) {
			return false
		}
		pf, pt = f, t
	}
	return true
}

// countingPass stably distributes src into dst ordered by one endpoint
// (from when major, to otherwise). counts is caller-provided scratch with
// one slot per process.
func countingPass[T Addressed](src, dst []T, counts []int, major bool) {
	for i := range counts {
		counts[i] = 0
	}
	for _, m := range src {
		f, t := m.Endpoints()
		if major {
			counts[f]++
		} else {
			counts[t]++
		}
	}
	sum := 0
	for k := range counts {
		c := counts[k]
		counts[k] = sum
		sum += c
	}
	for _, m := range src {
		f, t := m.Endpoints()
		k := t
		if major {
			k = f
		}
		dst[counts[k]] = m
		counts[k]++
	}
}
