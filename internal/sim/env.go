package sim

import (
	"fmt"

	"omicon/internal/rng"
	"omicon/internal/wire"
)

// Env is the execution environment a protocol sees. Protocols are written
// against this interface so that they can run directly on the engine, on a
// relabeled subset of processes (SubEnv, used by ParamOmissions'
// round-robin phases), or — in principle — over a real transport.
type Env interface {
	// ID returns this process's identifier in [0, N()).
	ID() int
	// N returns the number of processes in this environment.
	N() int
	// T returns the corruption budget the protocol must tolerate.
	T() int
	// Round returns the number of communication phases completed in this
	// environment.
	Round() int
	// Rand returns the process's metered random source (Section 2's
	// randomness metric counts every access).
	Rand() *rng.Source
	// Send stages one message carrying payload to each pid in to, in order
	// and ahead of Exchange's out, for this process's next Exchange; the
	// payload is measured once. A target outside [0, N()) fails the
	// execution at that Exchange; a process that returns instead sends
	// nothing it staged.
	Send(payload wire.Marshaler, to []int)
	// Exchange stages out (each message naming this process as sender) and
	// blocks until the communication phase completes, returning the messages
	// delivered to this process, sorted by sender. With nothing staged, nil
	// makes an idle round.
	//
	// ALIASING CONTRACT (both directions, the zero-alloc hot path of
	// docs/PERFORMANCE.md depends on it):
	//
	//   - The returned slice is valid only until this process's next
	//     Exchange call or its return — the engine reuses the inbox
	//     backing arena for the following round, and a later execution
	//     for its own. Protocols must finish reading (or copy) an inbox
	//     before exchanging again; none of the protocols here retain
	//     inboxes across rounds.
	//   - Send's to and Exchange's out are read only during the call:
	//     the caller may reuse their backing as soon as it returns.
	//   - Payloads are immutable once staged. A payload travels by
	//     reference and may be read by its receiver concurrently with
	//     the sender's next computation phase, so senders must never
	//     mutate a payload (or backing arrays it points to) after
	//     passing it to Send or Exchange.
	//
	// Send and Exchange must be called on the goroutine that runs the
	// protocol, never from one the protocol starts: on the engine that
	// goroutine is the process's coroutine, and Exchange parks it.
	Exchange(out []Message) []Message
	// SetSnapshot publishes the process's current protocol state to the
	// full-information adversary. Honest protocols publish faithfully.
	SetSnapshot(s any)
	// Span opens a named phase-attribution region: cost accrued by this
	// process (messages sent, randomness drawn) until the returned closure
	// is called is attributed to the span in traces and per-round metric
	// series. Spans may nest; the closure restores the enclosing span.
	// On an untraced execution both open and close are no-ops.
	Span(name string) func()
}

// procEnv is the engine's Env: one per pooled coroutine (coro.go), handed
// to a new process each execution. Besides the Env state it carries the
// slots a step hands across the coroutine switch — the decision and error
// of a process that returned.
type procEnv struct {
	eng   *engine     // nil while the coroutine is pooled
	shard *shardState // the shard stepping this process; its outbox takes the sends
	id    int
	round int
	rand  *rng.Source
	yield func(done bool) bool

	decision int
	err      error
}

var _ Env = (*procEnv)(nil)

func (e *procEnv) ID() int           { return e.id }
func (e *procEnv) N() int            { return e.eng.cfg.N }
func (e *procEnv) T() int            { return e.eng.cfg.T }
func (e *procEnv) Round() int        { return e.round }
func (e *procEnv) Rand() *rng.Source { return e.rand }

// Send appends one record per target straight into the shard's outbox — at
// one shard, the round outbox the adversary reads as View.Outbox.
func (e *procEnv) Send(payload wire.Marshaler, to []int) {
	if len(to) > 0 {
		e.stage(payload, wire.BitLen(payload), to)
	}
}

// Exchange stages out, then yields to the stepping goroutine and parks
// until the next step phase resumes the process, by which time the
// communication phase has carved its inbox — or until the execution aborts.
func (e *procEnv) Exchange(out []Message) []Message {
	for _, m := range out {
		if m.From != e.id {
			if e.shard.err == nil {
				e.shard.err = fmt.Errorf("sim: process %d forged sender %d", e.id, m.From)
			}
			continue
		}
		e.stage(m.Payload, m.bits, []int{m.To})
	}
	if !e.yield(false) || e.eng.aborting {
		panic(errAborted)
	}
	e.round++
	return e.eng.inboxes[e.id]
}

// stage appends one record per target to the shard's outbox, and in the
// same pass validates each target, counts it per receiver and notes a break
// of canonical (From, To) order — in a shard stepped in pid order, a target
// below the sender's previous one.
func (e *procEnv) stage(payload wire.Marshaler, bits int64, to []int) {
	st, from := e.shard, e.id
	out, counts := grow(st.outbox, len(to)), st.counts
	last := -1
	if k := len(out); k > 0 && out[k-1].From == from {
		last = out[k-1].To
	}
	for _, q := range to {
		if uint(q) >= uint(len(counts)) {
			if st.err == nil {
				st.err = fmt.Errorf("sim: process %d sent to invalid target %d", from, q)
			}
			continue
		}
		if q < last {
			st.unordered = true
		}
		last = q
		counts[q]++
		out = append(out, Message{From: from, To: q, Payload: payload, bits: bits})
	}
	st.sentBits += bits * int64(len(out)-len(st.outbox))
	st.outbox = out
}

// grow returns buf with room for n more messages. It reallocates to at
// least twice the capacity, so the buffers allocated on the way to a
// capacity C sum to under 2C; append's growth of large slices, about
// 1.25x, sums to about 5C.
func grow(buf []Message, n int) []Message {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	return append(make([]Message, 0, max(len(buf)+n, 2*cap(buf))), buf...)
}

func (e *procEnv) SetSnapshot(s any) {
	e.eng.snapshots[e.id] = s
}

func (e *procEnv) Span(name string) func() {
	if e.eng.obs == nil {
		return func() {}
	}
	return e.eng.obs.openSpan(e.id, e.round, name)
}

// Idle performs k empty communication rounds.
func Idle(env Env, k int) {
	for i := 0; i < k; i++ {
		env.Exchange(nil)
	}
}
