package sim

import (
	"testing"

	"omicon/internal/trace"
)

// echoProto exercises spans, randomness and messaging: each process opens a
// span, gossips its input for a few rounds, draws random bits in a second
// span, then decides on the majority of what it saw.
func echoProto(env Env, input int) (int, error) {
	ones := input
	total := 1
	close := env.Span("gossip")
	for r := 0; r < 3; r++ {
		var out []Message
		for q := 0; q < env.N(); q++ {
			if q != env.ID() {
				out = append(out, Msg(env.ID(), q, bitPayload{input}))
			}
		}
		for _, m := range env.Exchange(out) {
			ones += m.Payload.(bitPayload).b
			total++
		}
	}
	close()
	done := env.Span("coin")
	_ = env.Rand().Bit()
	done()
	if 2*ones >= total {
		return 1, nil
	}
	return 0, nil
}

// TestTracedRunReconciles pins the reconciliation contract at the engine
// level: a traced execution yields an event stream whose deltas sum
// exactly to the result's final snapshot.
func TestTracedRunReconciles(t *testing.T) {
	capture := &trace.Capture{}
	res, err := Run(Config{
		N: 8, T: 2,
		Inputs: []int{1, 0, 1, 1, 0, 1, 0, 1},
		Seed:   7,
		Trace:  trace.New(capture),
	}, echoProto)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := trace.Verify(capture.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("got %d segments, want 1", len(sums))
	}
	if sums[0].Final != res.Metrics {
		t.Fatalf("exec-end snapshot %+v != result metrics %+v", sums[0].Final, res.Metrics)
	}
	if sums[0].Spans < 2 {
		t.Fatalf("expected span attribution for gossip and coin, got %d spans", sums[0].Spans)
	}

	// The span deltas must show the protocol's structure: all messages in
	// "gossip", all randomness in "coin".
	var gossipMsgs, coinBits int64
	var decides, roundEnds int
	for _, e := range capture.Events() {
		switch e.Kind {
		case trace.KindSpanDelta:
			switch e.Span {
			case "gossip":
				gossipMsgs += e.Messages
			case "coin":
				coinBits += e.RandomBits
			}
		case trace.KindDecide:
			decides++
		case trace.KindRoundEnd:
			roundEnds++
		}
	}
	if gossipMsgs != res.Metrics.Messages {
		t.Fatalf("gossip span has %d messages, want all %d", gossipMsgs, res.Metrics.Messages)
	}
	if coinBits != res.Metrics.RandomBits {
		t.Fatalf("coin span has %d random bits, want all %d", coinBits, res.Metrics.RandomBits)
	}

	// Decisions and boundaries appear in the stream.
	if decides != 8 {
		t.Fatalf("got %d decide events, want 8", decides)
	}
	if int64(roundEnds) != res.Metrics.Rounds {
		t.Fatalf("got %d round-end events for %d rounds", roundEnds, res.Metrics.Rounds)
	}
}

// TestUntracedRunHasNoObserver checks the no-op path: without an enabled
// tracer no observer is built, so spans cost nothing.
func TestUntracedRunHasNoObserver(t *testing.T) {
	for _, tr := range []*trace.Tracer{nil, {}} { // nil, and one with no sink
		observed := false
		_, err := Run(Config{
			N: 4, T: 1, Inputs: []int{1, 0, 1, 0}, Seed: 3, Trace: tr,
		}, func(env Env, input int) (int, error) {
			if env.(*procEnv).eng.obs != nil {
				observed = true
			}
			return echoProto(env, input)
		})
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			t.Fatal("untraced run must not build an observer")
		}
	}
}

// TestTracedAbortReconciles checks that an aborted execution still closes
// its trace segment with reconciling residuals (the post event picks up the
// half-accounted round).
func TestTracedAbortReconciles(t *testing.T) {
	capture := &trace.Capture{}
	_, err := Run(Config{
		N: 4, T: 1, Inputs: []int{1, 0, 1, 0}, Seed: 3,
		MaxRounds: 2,
		Trace:     trace.New(capture),
	}, echoProto)
	if err == nil {
		t.Fatal("expected ErrMaxRounds")
	}
	if _, err := trace.Verify(capture.Events()); err != nil {
		t.Fatalf("aborted run's trace does not verify: %v", err)
	}
}
