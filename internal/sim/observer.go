package sim

import (
	"sort"

	"omicon/internal/metrics"
	"omicon/internal/rng"
	"omicon/internal/trace"
)

// observer turns engine barriers into the per-round trace/metrics time
// series. It is nil when the execution is untraced, so the hot path pays a
// single nil check per barrier.
//
// CONCURRENCY: the spans slice is written by processes (via Env.Span)
// while their coroutine runs — on several shard workers at once when
// Shards >= 2 — and read by the engine only between step phases, when
// every live process is parked in Exchange: the phase barrier is the same
// happens-before edge that lets the View read the per-process rng counters
// and the snapshots slice without locks.
//
// DETERMINISM: events originating from processes (span open/close) or from
// the step phase (decide) are not emitted inline — they queue in
// per-process slots and flush at the next barrier in process-id order.
// Every emission therefore happens on the coordinating goroutine in an
// order derived only from (seed, config), which is what makes a trace —
// and the torture harness's per-failure ring dumps — byte-identical across
// runs, shard counts and worker counts.
type observer struct {
	tr       *trace.Tracer
	series   *metrics.Series
	counters *metrics.Counters
	sources  []*rng.Source

	spans   []string // current span per process, SpanNone by default
	pending []map[string]metrics.Delta
	queued  [][]trace.Event // per-process events awaiting the barrier flush

	lastSnap  metrics.Snapshot
	lastCalls []int64
	lastBits  []int64
}

func newObserver(tr *trace.Tracer, counters *metrics.Counters, sources []*rng.Source) *observer {
	n := len(sources)
	o := &observer{
		tr:        tr,
		series:    metrics.NewSeries(),
		counters:  counters,
		sources:   sources,
		spans:     make([]string, n),
		pending:   make([]map[string]metrics.Delta, n),
		queued:    make([][]trace.Event, n),
		lastCalls: make([]int64, n),
		lastBits:  make([]int64, n),
	}
	for p := range o.spans {
		o.spans[p] = trace.SpanNone
	}
	return o
}

// drain moves process pid's randomness delta since the last drain into its
// pending attribution map, under its current span. It is called by pid
// itself at span transitions and by the engine at barriers; the two never
// overlap (pid is mid-round in the former, parked in the latter), so the
// per-pid slots need no lock.
func (o *observer) drain(pid int) {
	src := o.sources[pid]
	calls, bits := src.Calls(), src.BitsDrawn()
	dCalls, dBits := calls-o.lastCalls[pid], bits-o.lastBits[pid]
	if dCalls == 0 && dBits == 0 {
		return
	}
	o.lastCalls[pid], o.lastBits[pid] = calls, bits
	m := o.pending[pid]
	if m == nil {
		m = make(map[string]metrics.Delta, 2)
		o.pending[pid] = m
	}
	d := m[o.spans[pid]]
	d.RandomCalls += dCalls
	d.RandomBits += dBits
	m[o.spans[pid]] = d
}

// queue parks an event in pid's slot until the barrier flush. Each slot is
// touched only by pid itself mid-round and by the engine at barriers or
// after pid returned — the drain/spans happens-before argument.
func (o *observer) queue(pid int, e trace.Event) {
	if o.tr.Enabled() {
		o.queued[pid] = append(o.queued[pid], e)
	}
}

// flush emits every queued event in process-id order. Called at barriers
// and at finish, from the coordinating goroutine.
func (o *observer) flush() {
	for p, evs := range o.queued {
		for _, e := range evs {
			o.tr.Emit(e)
		}
		o.queued[p] = o.queued[p][:0]
	}
}

// openSpan is the Env.Span implementation: it drains randomness accrued
// under the enclosing span, switches process pid to the named span, and
// returns the closure that drains and restores on close. Draws are thus
// attributed to the span active when they happened, even for spans opened
// and closed between two barriers.
func (o *observer) openSpan(pid, round int, name string) func() {
	o.drain(pid)
	prev := o.spans[pid]
	o.spans[pid] = name
	o.queue(pid, trace.Event{Kind: trace.KindSpanOpen, Round: round, Proc: pid, Span: name})
	return func() {
		o.drain(pid)
		o.spans[pid] = prev
		o.queue(pid, trace.Event{Kind: trace.KindSpanClose, Round: round, Proc: pid, Span: name})
	}
}

// spanDeltas folds every process's pending randomness attribution (plus any
// undrained remainder) into spanMap and clears it.
func (o *observer) spanDeltas(spanMap map[string]metrics.Delta) {
	for p := range o.sources {
		o.drain(p)
		for name, d := range o.pending[p] {
			spanMap[name] = spanMap[name].Add(d)
		}
		o.pending[p] = nil
	}
}

// emitRecord appends rec to the series and emits its span-delta events (in
// deterministic span order) followed by the boundary event of the given
// kind.
func (o *observer) emitRecord(kind trace.Kind, rec metrics.RoundRecord, drops int64) {
	o.series.Append(rec)
	if o.tr.Enabled() {
		names := make([]string, 0, len(rec.Spans))
		for name := range rec.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := rec.Spans[name]
			o.tr.Emit(trace.Event{
				Kind: trace.KindSpanDelta, Round: rec.Round, Proc: -1, Span: name,
				Messages: d.Messages, CommBits: d.CommBits,
				RandomBits: d.RandomBits, RandomCalls: d.RandomCalls, Drops: d.Drops,
			})
		}
		o.tr.Emit(trace.Event{
			Kind: kind, Round: rec.Round, Proc: -1, Span: rec.Span,
			Rounds: rec.Rounds, Messages: rec.Total.Messages, CommBits: rec.Total.CommBits,
			RandomBits: rec.Total.RandomBits, RandomCalls: rec.Total.RandomCalls,
			Drops: drops,
		})
	}
}

// roundEnd closes one communication phase at the barrier: it computes the
// cost delta since the previous barrier, splits it across spans (messages
// by sender's span, randomness by drawing process's span), and attributes
// the round itself to the span of the lowest-id still-active process. The
// engine syncs the sharded randomness totals into the shared counters
// immediately before calling, so the snapshot taken here is exact.
func (o *observer) roundEnd(round int, outbox []Message, drops int64, submitted []bool) {
	o.flush()
	snap := o.counters.Snapshot()
	spanMap := make(map[string]metrics.Delta)
	o.spanDeltas(spanMap)
	for _, m := range outbox {
		d := spanMap[o.spans[m.From]]
		d.Messages++
		d.CommBits += m.Bits()
		spanMap[o.spans[m.From]] = d
	}
	owner := trace.SpanNone
	for p, s := range submitted {
		if s {
			owner = o.spans[p]
			break
		}
	}
	rec := metrics.RoundRecord{
		Round:  round,
		Rounds: snap.Rounds - o.lastSnap.Rounds,
		Span:   owner,
		Total: metrics.Delta{
			Messages:    snap.Messages - o.lastSnap.Messages,
			CommBits:    snap.CommBits - o.lastSnap.CommBits,
			RandomBits:  snap.RandomBits - o.lastSnap.RandomBits,
			RandomCalls: snap.RandomCalls - o.lastSnap.RandomCalls,
			Drops:       drops,
		},
		Spans: spanMap,
	}
	o.lastSnap = snap
	o.emitRecord(trace.KindRoundEnd, rec, drops)
}

// decide records a decision event for a terminating process. Queued rather
// than emitted, so a decision lands in pid order among the round's other
// queued events at every shard count.
func (o *observer) decide(round, pid, decision int) {
	o.queue(pid, trace.Event{Kind: trace.KindDecide, Round: round, Proc: pid, Value: int64(decision)})
}

// finish folds everything accrued after the last barrier — randomness drawn
// past the final exchange, or the cost of a round the engine aborted before
// its barrier completed — into one post record, then closes the execution
// segment with the final snapshot. Randomness residuals are attributed to
// each process's final span; message residuals (only present on aborted
// rounds, whose outbox never reached a barrier) fall to SpanNone.
func (o *observer) finish(round int, final metrics.Snapshot) {
	o.flush()
	spanMap := make(map[string]metrics.Delta)
	o.spanDeltas(spanMap)
	if dm, db := final.Messages-o.lastSnap.Messages, final.CommBits-o.lastSnap.CommBits; dm != 0 || db != 0 {
		d := spanMap[trace.SpanNone]
		d.Messages += dm
		d.CommBits += db
		spanMap[trace.SpanNone] = d
	}
	rec := metrics.RoundRecord{
		Round:  round,
		Rounds: final.Rounds - o.lastSnap.Rounds,
		Span:   trace.SpanNone,
		Total: metrics.Delta{
			Messages:    final.Messages - o.lastSnap.Messages,
			CommBits:    final.CommBits - o.lastSnap.CommBits,
			RandomBits:  final.RandomBits - o.lastSnap.RandomBits,
			RandomCalls: final.RandomCalls - o.lastSnap.RandomCalls,
		},
		Spans: spanMap,
	}
	o.lastSnap = final
	o.emitRecord(trace.KindPost, rec, 0)
	o.tr.ExecEnd(final)
}
