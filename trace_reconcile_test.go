package omicon_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"omicon"
	"omicon/internal/trace"
)

// TestTracedSolveReconciles is the public acceptance test for the
// observability layer: a traced execution through the top-level API must
// produce a JSONL stream that decodes, self-verifies (per-round and
// per-span deltas sum exactly to the embedded final snapshot), and whose
// exec-end snapshot equals the Result's metrics. It exercises the full
// Algorithm 1 stack — gossip, aggregation, spreading and coin spans — under
// an active adversary.
func TestTracedSolveReconciles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewJSONL(f)

	n, tf := 36, 1
	res, err := omicon.Solve(omicon.Config{
		N: n, T: tf,
		Inputs:    omicon.MixedInputs(n, n/2),
		Seed:      5,
		Adversary: omicon.SplitVote(tf, 5),
		Trace:     omicon.NewTracer(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := trace.Verify(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("got %d segments, want 1", len(sums))
	}
	if sums[0].Final != res.Metrics {
		t.Fatalf("trace exec-end [%s] != result metrics [%s]",
			sums[0].Final.Verbose(), res.Metrics.Verbose())
	}
	if int64(sums[0].Rounds) != res.Metrics.Rounds {
		t.Fatalf("trace has %d round-end events for %d rounds", sums[0].Rounds, res.Metrics.Rounds)
	}

	// Algorithm 1's phase spans must be present and carry real cost: the
	// gossip exchanges dominate communication, the coin flips own the
	// randomness.
	spans := map[string]bool{}
	var spanned, total int64
	for _, e := range events {
		if e.Kind == trace.KindSpanDelta {
			spans[e.Span] = true
			if e.Span != trace.SpanNone {
				spanned += e.CommBits
			}
			total += e.CommBits
		}
	}
	for _, want := range []string{"group-relay", "spreading"} {
		if !spans[want] {
			t.Errorf("span %q missing from trace (saw %v)", want, spans)
		}
	}
	if total == 0 || spanned*2 < total {
		t.Fatalf("phase spans own %d of %d comm bits; attribution is too coarse", spanned, total)
	}
}

// TestSeriesMatchesUntracedRun checks that tracing is purely observational:
// the same configuration with and without a tracer yields identical
// decisions and metrics.
func TestSeriesMatchesUntracedRun(t *testing.T) {
	n, tf := 36, 1
	cfg := omicon.Config{
		N: n, T: tf,
		Inputs:    omicon.MixedInputs(n, n/2),
		Seed:      9,
		Adversary: omicon.SplitVote(tf, 9),
	}
	plain, err := omicon.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cfg.Adversary = omicon.SplitVote(tf, 9) // fresh adversary state
	cfg.Trace = omicon.NewTracer(trace.NewJSONL(&buf))
	traced, err := omicon.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != traced.Metrics {
		t.Fatalf("tracing changed metrics: [%s] vs [%s]",
			plain.Metrics.Verbose(), traced.Metrics.Verbose())
	}
	for p := range plain.Decisions {
		if plain.Decisions[p] != traced.Decisions[p] {
			t.Fatalf("tracing changed decision of process %d", p)
		}
	}
}
