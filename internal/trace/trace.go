// Package trace provides cheap structured per-round execution tracing for
// the simulator, the protocols and the transport. An execution emits a
// stream of Events — round boundaries with cost deltas, phase-attribution
// spans opened by protocol code, adversary corruptions, decisions, crashes
// — into a pluggable Sink. Three sinks cover the use cases:
//
//   - a disabled Tracer (the zero value, or nil) is the no-op sink: every
//     emission is a nil-check and a branch, so tracing costs nothing on the
//     engine hot path when off (see BenchmarkDisabledEmit);
//   - Capture records every event in memory, in emission order: the
//     per-trial buffer parallel campaign drivers replay into their stream
//     in trial order;
//   - JSONL streams events as JSON lines to an io.Writer, the persistent
//     format the -trace flags of cmd/omicon, cmd/torture, cmd/tournament
//     and cmd/replay write and cmd/tracelint verifies.
//
// The event stream is self-checking: every execution segment opens with
// KindExecStart and closes with KindExecEnd carrying the final aggregate
// metrics.Snapshot, and Verify re-derives that snapshot from the per-round
// and per-span deltas in between. A trace that does not reconcile exactly
// indicates broken accounting, not a protocol bug.
package trace

import (
	"fmt"

	"omicon/internal/metrics"
)

// Kind classifies an event. The vocabulary is documented in
// docs/OBSERVABILITY.md; unknown kinds must be ignored by consumers so the
// vocabulary can grow.
type Kind string

// The event vocabulary.
const (
	// KindExecStart opens an execution segment (Note carries a
	// human-readable description; Value the seed when meaningful).
	KindExecStart Kind = "exec-start"
	// KindExecEnd closes an execution segment; the metric fields carry
	// the final aggregate metrics.Snapshot of the execution.
	KindExecEnd Kind = "exec-end"
	// KindRoundEnd reports one completed communication phase: Rounds is 1
	// and the metric fields are the cost deltas accrued since the
	// previous round boundary. Span names the phase the round itself is
	// attributed to (the span of the lowest-id still-active process).
	KindRoundEnd Kind = "round-end"
	// KindPost reports residual cost accrued after the last communication
	// phase (or before an aborted one): same delta semantics as
	// KindRoundEnd but with Rounds possibly 0.
	KindPost Kind = "post"
	// KindSpanDelta attributes a slice of a round's delta to one span.
	// Summed over a segment, span deltas partition the round deltas.
	KindSpanDelta Kind = "span-delta"
	// KindSpanOpen and KindSpanClose mark a protocol entering/leaving a
	// phase-attribution region on one process.
	KindSpanOpen  Kind = "span-open"
	KindSpanClose Kind = "span-close"
	// KindCorrupt reports the adversary taking over process Proc; Value
	// is the corruption budget consumed so far (budget drain over time).
	KindCorrupt Kind = "corrupt"
	// KindDecide reports process Proc returning with decision Value.
	KindDecide Kind = "decide"
	// KindCrash reports a real-world process failure absorbed as an
	// in-model fault by the transport (Crashes is 1, Note the cause).
	KindCrash Kind = "crash"
	// KindRetry reports a transport reconnect adoption (Retries is 1).
	KindRetry Kind = "retry"
	// KindCoinTrial reports one coin-flipping game trial: Drops is the
	// number of hidden players, Value 1 when the bias succeeded.
	KindCoinTrial Kind = "coin-trial"
	// KindNote is free-form context (trial headers, configuration).
	KindNote Kind = "note"
)

// SpanNone is the attribution label for cost accrued outside any protocol
// span.
const SpanNone = "unspanned"

// Event is one structured trace record. The zero value is not valid; use
// the emission helpers or set Proc to -1 explicitly for events that are not
// scoped to a process.
type Event struct {
	Kind  Kind   `json:"kind"`
	Round int    `json:"round"`
	Proc  int    `json:"proc"` // -1 when not process-scoped
	Span  string `json:"span,omitempty"`

	// Cost deltas / totals, depending on Kind.
	Rounds      int64 `json:"rounds,omitempty"`
	Messages    int64 `json:"messages,omitempty"`
	CommBits    int64 `json:"commBits,omitempty"`
	RandomBits  int64 `json:"randomBits,omitempty"`
	RandomCalls int64 `json:"randomCalls,omitempty"`
	Drops       int64 `json:"drops,omitempty"`
	Crashes     int64 `json:"crashes,omitempty"`
	Retries     int64 `json:"retries,omitempty"`

	// Value is kind-specific: a decision bit, a budget count, a seed.
	Value int64  `json:"value,omitempty"`
	Note  string `json:"note,omitempty"`
}

// String renders the event as one human-readable line (the narrative form
// used when eyeballing a trace).
func (e Event) String() string {
	s := fmt.Sprintf("r%-4d %-10s", e.Round, e.Kind)
	if e.Proc >= 0 {
		s += fmt.Sprintf(" p%d", e.Proc)
	}
	if e.Span != "" {
		s += " span=" + e.Span
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"rounds", e.Rounds}, {"msgs", e.Messages}, {"bits", e.CommBits},
		{"randBits", e.RandomBits}, {"randCalls", e.RandomCalls},
		{"drops", e.Drops}, {"crashes", e.Crashes}, {"retries", e.Retries},
		{"value", e.Value},
	} {
		if f.v != 0 {
			s += fmt.Sprintf(" %s=%d", f.name, f.v)
		}
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Sink receives emitted events. Implementations must be safe for concurrent
// Emit calls: processes on shard workers emit span events while the engine
// emits round events, and concurrent executions may share a sink.
type Sink interface {
	Emit(Event)
}

// Tracer is the emission front end handed to the engine, the transport and
// the protocols. A nil or disabled Tracer swallows every event after a
// single branch, so call sites never need their own guards for correctness
// — only to skip building expensive events.
type Tracer struct {
	sink Sink
}

// New returns a Tracer emitting into sink (nil sink yields a disabled
// tracer).
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether emitted events reach a sink. Call sites use it to
// skip event construction on hot paths.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Emit forwards one event to the sink; it is a no-op on a nil or disabled
// tracer. Tracer itself implements Sink, so tracers compose (MultiSink
// tees one execution into several tracers).
func (t *Tracer) Emit(e Event) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Emit(e)
}

var _ Sink = (*Tracer)(nil)

// ExecStart emits the opening event of an execution segment.
func (t *Tracer) ExecStart(note string, seed uint64) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: KindExecStart, Proc: -1, Value: int64(seed), Note: note})
}

// ExecEnd emits the closing event of an execution segment with the final
// aggregate snapshot.
func (t *Tracer) ExecEnd(s metrics.Snapshot) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{
		Kind: KindExecEnd, Proc: -1,
		Rounds: s.Rounds, Messages: s.Messages, CommBits: s.CommBits,
		RandomBits: s.RandomBits, RandomCalls: s.RandomCalls,
		Crashes: s.Crashes, Retries: s.Retries,
	})
}

// Notef emits a free-form note event.
func (t *Tracer) Notef(format string, args ...any) {
	if !t.Enabled() {
		return
	}
	t.Emit(Event{Kind: KindNote, Proc: -1, Note: fmt.Sprintf(format, args...)})
}
