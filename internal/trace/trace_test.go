package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"omicon/internal/metrics"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindExecStart, Proc: -1, Value: 42, Note: "n=4 t=1"},
		{Kind: KindSpanOpen, Round: 1, Proc: 0, Span: "group-relay"},
		{Kind: KindSpanDelta, Round: 1, Proc: -1, Span: "group-relay", Messages: 12, CommBits: 48, RandomBits: 3, RandomCalls: 3},
		{Kind: KindRoundEnd, Round: 1, Proc: -1, Span: "group-relay", Rounds: 1, Messages: 12, CommBits: 48, RandomBits: 3, RandomCalls: 3, Drops: 2},
		{Kind: KindCorrupt, Round: 2, Proc: 3, Value: 1},
		{Kind: KindSpanDelta, Round: 2, Proc: -1, Span: SpanNone, Messages: 4, CommBits: 8},
		{Kind: KindRoundEnd, Round: 2, Proc: -1, Span: SpanNone, Rounds: 1, Messages: 4, CommBits: 8},
		{Kind: KindDecide, Round: 2, Proc: 0, Value: 1},
		{Kind: KindSpanDelta, Round: 2, Proc: -1, Span: SpanNone, RandomBits: 5, RandomCalls: 1},
		{Kind: KindPost, Round: 2, Proc: -1, RandomBits: 5, RandomCalls: 1},
		{Kind: KindExecEnd, Round: 2, Proc: -1, Rounds: 2, Messages: 16, CommBits: 56, RandomBits: 8, RandomCalls: 4},
	}
}

// TestJSONLRoundTrip pins the persistence contract: encoding a stream to
// JSONL and decoding it back yields the identical stream.
func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mutated the stream:\n got %+v\nwant %+v", got, events)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.jsonl")
	events := sampleEvents()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewJSONL(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("file round trip mutated the stream")
	}
}

func TestReadAllRejectsMalformedLine(t *testing.T) {
	in := strings.NewReader("{\"kind\":\"note\",\"proc\":-1}\nnot json\n")
	if _, err := ReadAll(in); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered decode error, got %v", err)
	}
}

func TestRingKeepsRecentEvents(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Emit(Event{Kind: KindNote, Proc: -1, Value: int64(i)})
	}
	if r.Len() != 40 {
		t.Fatalf("Len() = %d, want 40", r.Len())
	}
	got := r.Events()
	if len(got) != 16 {
		t.Fatalf("retained %d events, want 16", len(got))
	}
	for i, e := range got {
		if want := int64(24 + i); e.Value != want {
			t.Fatalf("event %d has value %d, want %d (oldest-first order)", i, e.Value, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Kind: KindNote, Proc: g, Value: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len() = %d, want 800", r.Len())
	}
	if got := len(r.Events()); got != 64 {
		t.Fatalf("retained %d events, want 64", got)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRing(16), NewRing(16)
	var disabled *Tracer
	s := MultiSink(nil, disabled, a, b)
	s.Emit(Event{Kind: KindNote, Proc: -1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("multi sink did not fan out")
	}
	if MultiSink(nil, disabled) != nil {
		t.Fatal("all-nil multi sink must collapse to nil")
	}
	if got := MultiSink(a); got != Sink(a) {
		t.Fatal("single-sink multi must collapse to the sink itself")
	}
}

func TestTracerComposesAsSink(t *testing.T) {
	r := NewRing(16)
	outer := New(r)
	inner := New(MultiSink(NewRing(16), outer))
	inner.Notef("hello %d", 7)
	if r.Len() != 1 {
		t.Fatal("event did not propagate through the teed tracer")
	}
}

func TestVerifyAcceptsSelfConsistentStream(t *testing.T) {
	sums, err := Verify(sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("got %d segments, want 1", len(sums))
	}
	s := sums[0]
	if s.Rounds != 2 || s.Spans != 2 || s.Final.CommBits != 56 {
		t.Fatalf("unexpected summary %+v", s)
	}
}

func TestVerifyMultipleSegments(t *testing.T) {
	events := append(sampleEvents(), Event{Kind: KindCoinTrial, Proc: -1, Drops: 3, Value: 1})
	events = append(events, sampleEvents()...)
	sums, err := Verify(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d segments, want 2", len(sums))
	}
}

func TestVerifyCountsCrashEvents(t *testing.T) {
	events := []Event{
		{Kind: KindExecStart, Proc: -1, Note: "transport"},
		{Kind: KindCrash, Round: 1, Proc: 2, Crashes: 1, Note: "io timeout"},
		{Kind: KindRoundEnd, Round: 1, Proc: -1, Rounds: 1, Messages: 2, CommBits: 2},
		{Kind: KindRetry, Round: 2, Proc: 2, Retries: 1},
		{Kind: KindExecEnd, Round: 1, Proc: -1, Rounds: 1, Messages: 2, CommBits: 2, Crashes: 1, Retries: 1},
	}
	if _, err := Verify(events); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBrokenStreams(t *testing.T) {
	base := sampleEvents()
	cases := map[string][]Event{
		"lost delta": func() []Event {
			ev := append([]Event(nil), base...)
			ev[3].Messages-- // round-end no longer sums to exec-end
			return ev
		}(),
		"span leak": func() []Event {
			ev := append([]Event(nil), base...)
			ev[2].CommBits-- // span deltas no longer partition totals
			return ev
		}(),
		"truncated": base[:len(base)-1],
		"orphan end": {
			{Kind: KindExecEnd, Proc: -1},
		},
		"nested start": {
			{Kind: KindExecStart, Proc: -1},
			{Kind: KindExecStart, Proc: -1},
		},
		"delta outside segment": {
			{Kind: KindRoundEnd, Proc: -1, Rounds: 1},
		},
	}
	for name, ev := range cases {
		if _, err := Verify(ev); err == nil {
			t.Errorf("%s: Verify accepted a broken stream", name)
		}
	}
}

func TestDisabledTracerIsFree(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Emit(Event{Kind: KindNote})
	nilTracer.ExecStart("x", 0)
	nilTracer.ExecEnd(metrics.Snapshot{})
	nilTracer.Notef("x")
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if New(nil) != nil {
		t.Fatal("New(nil) must yield the disabled tracer")
	}

	// The disabled tracer must be cheap enough to leave compiled into
	// every protocol hot path: <5 ns/event. Race instrumentation inflates
	// the branch beyond the budget, so the timing gate only runs uninstrumented.
	if raceEnabled {
		t.Skip("timing gate is meaningless under the race detector")
	}
	res := testing.Benchmark(BenchmarkDisabledEmit)
	if ns := res.NsPerOp(); ns >= 5 {
		t.Fatalf("disabled Emit costs %d ns/event, want <5", ns)
	}
}

var benchSink *Tracer // global so the call is not optimized away wholesale

func BenchmarkDisabledEmit(b *testing.B) {
	e := Event{Kind: KindRoundEnd, Round: 3, Proc: -1, Rounds: 1, Messages: 100, CommBits: 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink.Emit(e)
	}
}

func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(8192)
	tr := New(r)
	e := Event{Kind: KindRoundEnd, Round: 3, Proc: -1, Rounds: 1, Messages: 100, CommBits: 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(e)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindRoundEnd, Round: 7, Proc: 2, Span: "spreading", Rounds: 1, Messages: 3, Note: "x"}
	s := e.String()
	for _, want := range []string{"r7", "round-end", "p2", "span=spreading", "msgs=3", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if zero := fmt.Sprint(Event{Kind: KindNote, Proc: -1}); strings.Contains(zero, "p-1") {
		t.Fatalf("negative proc must be omitted: %q", zero)
	}
}
