package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"omicon/internal/trace"
)

// The differential conformance suite below is the engine-level half of the
// sharded-execution contract (docs/PERFORMANCE.md): for every scenario a
// run at any shard count must produce a Result, metric snapshot, trace
// stream and recorded transcript byte-identical to the default one-shard
// run — including failing executions, which must abort with the identical
// error string. internal/torture carries the other half (full
// protocol×adversary campaign byte-identity).

// conformanceShards are the worker counts every scenario runs under, on
// top of the default (Shards=0) reference: the degenerate single worker,
// counts that do and do not divide the process counts, more workers than
// GOMAXPROCS, and the auto mode.
var conformanceShards = []int{1, 2, 3, 8, ShardsAuto}

// staggeredProto terminates processes at different rounds (pid p idles
// p%4 extra rounds), exercising dead-receiver discard and the shrinking
// active set; stragglers keep gossiping into the silence.
func staggeredProto(env Env, input int) (int, error) {
	all := make([]int, env.N())
	for i := range all {
		all[i] = i
	}
	env.Send(bitPayload{input}, all)
	env.Exchange(nil)
	Idle(env, env.ID()%4)
	return input, nil
}

// coinSnapProto draws randomness every round and republishes its snapshot,
// so Views differ round to round and rng totals accrue unevenly.
func coinSnapProto(env Env, input int) (int, error) {
	b := input
	for r := 0; r < 4; r++ {
		env.SetSnapshot(b)
		b ^= env.Rand().Bit()
		out := []Message{Msg(env.ID(), (env.ID()+r+1)%env.N(), bitPayload{b})}
		for _, m := range env.Exchange(out) {
			b ^= m.Payload.(bitPayload).b
		}
	}
	return b & 1, nil
}

type conformanceScenario struct {
	name  string
	n, t  int
	seed  uint64
	ones  int
	adv   func() Adversary // fresh per run; nil means NoFaults
	proto Protocol
}

func conformanceScenarios() []conformanceScenario {
	return []conformanceScenario{
		{name: "nofaults-majority", n: 16, t: 0, seed: 1, ones: 12, proto: majorityOnce},
		{name: "nofaults-spans", n: 8, t: 2, seed: 7, ones: 5, proto: echoProto},
		{name: "staggered-termination", n: 13, t: 0, seed: 11, ones: 6, proto: staggeredProto},
		{name: "coin-snapshots", n: 9, t: 0, seed: 23, ones: 4, proto: coinSnapProto},
		{
			name: "scripted-omissions", n: 10, t: 2, seed: 3, ones: 10,
			adv:   func() Adversary { return &scriptedAdversary{corrupt: []int{0, 1}} },
			proto: echoProto,
		},
		{
			name: "scripted-late-corrupt", n: 12, t: 3, seed: 5, ones: 7,
			adv:   func() Adversary { return &scriptedAdversary{corrupt: []int{4, 9, 11}} },
			proto: coinSnapProto,
		},
	}
}

// runConformance executes one scenario in the given mode with tracing and
// transcript recording and returns everything observable.
type conformanceRun struct {
	res        *Result
	err        error
	traceLines string
	transcript []byte
}

func runConformance(t *testing.T, sc conformanceScenario, shards int) conformanceRun {
	t.Helper()
	var adv Adversary
	if sc.adv != nil {
		adv = sc.adv()
	} else {
		adv = NoFaults{}
	}
	rec, transcript := NewRecorder(adv)
	ring := trace.NewRing(1 << 16)
	cfg := Config{
		N: sc.n, T: sc.t, Inputs: inputs(sc.n, sc.ones), Seed: sc.seed,
		Adversary: rec, Trace: trace.New(ring), Shards: shards,
	}
	res, err := Run(cfg, sc.proto)
	var sb strings.Builder
	for _, e := range ring.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	var buf bytes.Buffer
	if werr := transcript.WriteJSON(&buf); werr != nil {
		t.Fatalf("transcript: %v", werr)
	}
	sums, verr := trace.Verify(ring.Events())
	if verr != nil {
		t.Fatalf("shards=%d: trace does not verify: %v", shards, verr)
	}
	if len(sums) != 1 || sums[0].Final != res.Metrics {
		t.Fatalf("shards=%d: trace segments %+v do not close on the result metrics %+v", shards, sums, res.Metrics)
	}
	return conformanceRun{res: res, err: err, traceLines: sb.String(), transcript: buf.Bytes()}
}

func assertSameRun(t *testing.T, shards int, want, got conformanceRun) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) ||
		(want.err != nil && want.err.Error() != got.err.Error()) {
		t.Fatalf("shards=%d: err = %v, default engine got %v", shards, got.err, want.err)
	}
	a, b := want.res, got.res
	if a.Adversary != b.Adversary {
		t.Fatalf("shards=%d: adversary name %q != %q", shards, b.Adversary, a.Adversary)
	}
	for p := range a.Decisions {
		if a.Decisions[p] != b.Decisions[p] || a.TerminatedAt[p] != b.TerminatedAt[p] ||
			a.Corrupted[p] != b.Corrupted[p] {
			t.Fatalf("shards=%d: process %d diverged: decision %d/%d terminated %d/%d corrupted %v/%v",
				shards, p, b.Decisions[p], a.Decisions[p],
				b.TerminatedAt[p], a.TerminatedAt[p], b.Corrupted[p], a.Corrupted[p])
		}
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("shards=%d: metrics %v != %v", shards, b.Metrics, a.Metrics)
	}
	if got.traceLines != want.traceLines {
		t.Fatalf("shards=%d: trace diverged:\n--- default ---\n%s--- sharded ---\n%s",
			shards, firstDiffContext(want.traceLines, got.traceLines), firstDiffContext(got.traceLines, want.traceLines))
	}
	if !bytes.Equal(got.transcript, want.transcript) {
		t.Fatalf("shards=%d: recorded transcript diverged", shards)
	}
}

// firstDiffContext returns a few lines around the first diverging line, so
// a conformance failure names the offending event instead of dumping two
// full traces.
func firstDiffContext(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(al) {
				hi = len(al)
			}
			return strings.Join(al[lo:hi], "\n") + "\n"
		}
	}
	return "(prefix of the other)\n"
}

// TestShardedConformance is the engine-level differential suite: every
// scenario, traced and transcript-recorded, at every shard count, against
// the default engine's output.
func TestShardedConformance(t *testing.T) {
	for _, sc := range conformanceScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := runConformance(t, sc, 0)
			if sc.adv == nil && want.err != nil {
				t.Fatalf("reference run failed: %v", want.err)
			}
			for _, k := range conformanceShards {
				assertSameRun(t, k, want, runConformance(t, sc, k))
			}
		})
	}
}

// TestShardedFastPathConformance pins the untraced NoFaults fast path:
// no tracer, no recorder, so both engines skip the canonical sort — the
// delivery order must still agree exactly.
func TestShardedFastPathConformance(t *testing.T) {
	for _, proto := range []struct {
		name string
		p    Protocol
	}{{"majority", majorityOnce}, {"staggered", staggeredProto}, {"coin", coinSnapProto}} {
		t.Run(proto.name, func(t *testing.T) {
			want, err := Run(Config{N: 17, T: 0, Inputs: inputs(17, 9), Seed: 41}, proto.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range conformanceShards {
				got, err := Run(Config{N: 17, T: 0, Inputs: inputs(17, 9), Seed: 41, Shards: k}, proto.p)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				for p := range want.Decisions {
					if want.Decisions[p] != got.Decisions[p] || want.TerminatedAt[p] != got.TerminatedAt[p] {
						t.Fatalf("shards=%d: process %d diverged", k, p)
					}
				}
				if want.Metrics != got.Metrics {
					t.Fatalf("shards=%d: metrics %v != %v", k, got.Metrics, want.Metrics)
				}
			}
		})
	}
}

// TestShardedErrorConformance pins abort parity: engine-level failures
// surface with the identical sentinel and message in both modes.
func TestShardedErrorConformance(t *testing.T) {
	cases := []struct {
		name     string
		cfg      func(shards int) Config
		proto    Protocol
		sentinel error
		msg      string // exact error text, when pinned
	}{
		{
			name: "illegal-omission",
			cfg: func(k int) Config {
				return Config{N: 6, T: 1, Inputs: inputs(6, 0), Seed: 3,
					Adversary: &scriptedAdversary{illegal: true}, Shards: k}
			},
			proto:    majorityOnce,
			sentinel: ErrIllegalOmission,
		},
		{
			name: "budget-overrun",
			cfg: func(k int) Config {
				return Config{N: 6, T: 2, Inputs: inputs(6, 0), Seed: 3,
					Adversary: &scriptedAdversary{over: true}, Shards: k}
			},
			proto:    majorityOnce,
			sentinel: ErrBudget,
		},
		{
			name: "max-rounds",
			cfg: func(k int) Config {
				return Config{N: 5, T: 0, Inputs: inputs(5, 0), Seed: 1, MaxRounds: 7, Shards: k}
			},
			proto: func(env Env, input int) (int, error) {
				for {
					env.Exchange(nil)
				}
			},
			sentinel: ErrMaxRounds,
		},
		{
			name: "forged-sender",
			cfg: func(k int) Config {
				return Config{N: 7, T: 0, Inputs: inputs(7, 0), Seed: 1, Shards: k}
			},
			proto: func(env Env, input int) (int, error) {
				if env.ID() == 3 {
					env.Exchange([]Message{Msg(2, 0, bitPayload{0})})
				}
				env.Exchange(nil)
				return input, nil
			},
		},
		{
			name: "invalid-target",
			cfg: func(k int) Config {
				return Config{N: 7, T: 0, Inputs: inputs(7, 0), Seed: 1, Shards: k}
			},
			proto: func(env Env, input int) (int, error) {
				if env.ID() == 5 {
					env.Exchange([]Message{Msg(5, 99, bitPayload{0})})
				}
				env.Exchange(nil)
				return input, nil
			},
		},
		{
			name: "protocol-error",
			cfg: func(k int) Config {
				return Config{N: 5, T: 0, Inputs: inputs(5, 0), Seed: 1, Shards: k}
			},
			proto: func(env Env, input int) (int, error) {
				if env.ID() == 2 {
					return -1, errors.New("boom")
				}
				env.Exchange(nil)
				return input, nil
			},
		},
		{
			// Two processes fail in the same round: every mode reports the
			// smallest pid's error.
			name: "same-round-errors",
			cfg: func(k int) Config {
				return Config{N: 9, T: 0, Inputs: inputs(9, 0), Seed: 1, Shards: k}
			},
			proto: func(env Env, input int) (int, error) {
				env.Exchange(nil)
				if id := env.ID(); id == 2 || id == 7 {
					return -1, fmt.Errorf("boom %d", id)
				}
				env.Exchange(nil)
				return input, nil
			},
			msg: "sim: process 2: boom 2",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, want := Run(tc.cfg(0), tc.proto)
			if want == nil {
				t.Fatal("reference run unexpectedly succeeded")
			}
			if tc.sentinel != nil && !errors.Is(want, tc.sentinel) {
				t.Fatalf("reference err = %v, want %v", want, tc.sentinel)
			}
			if tc.msg != "" && want.Error() != tc.msg {
				t.Fatalf("reference err = %q, want %q", want, tc.msg)
			}
			for _, k := range conformanceShards {
				_, got := Run(tc.cfg(k), tc.proto)
				if got == nil || got.Error() != want.Error() {
					t.Fatalf("shards=%d: err = %v, default engine got %v", k, got, want)
				}
				if tc.sentinel != nil && !errors.Is(got, tc.sentinel) {
					t.Fatalf("shards=%d: err = %v does not wrap %v", k, got, tc.sentinel)
				}
			}
		})
	}
}

// TestShardedTracedAbortReconciles mirrors TestTracedAbortReconciles for
// the sharded engine: an aborted traced execution still closes its segment
// with reconciling residuals.
func TestShardedTracedAbortReconciles(t *testing.T) {
	ring := trace.NewRing(4096)
	_, err := Run(Config{
		N: 4, T: 1, Inputs: []int{1, 0, 1, 0}, Seed: 3,
		MaxRounds: 2, Trace: trace.New(ring), Shards: 2,
	}, echoProto)
	if err == nil {
		t.Fatal("expected ErrMaxRounds")
	}
	if _, err := trace.Verify(ring.Events()); err != nil {
		t.Fatalf("aborted sharded run's trace does not verify: %v", err)
	}
}

// TestWithShards pins the option semantics.
func TestWithShards(t *testing.T) {
	if got := (Config{}).WithShards(4).Shards; got != 4 {
		t.Fatalf("WithShards(4) = %d", got)
	}
	if got := (Config{}).WithShards(0).Shards; got != ShardsAuto {
		t.Fatalf("WithShards(0) = %d, want ShardsAuto", got)
	}
	if got := (Config{}).WithShards(-3).Shards; got != ShardsAuto {
		t.Fatalf("WithShards(-3) = %d, want ShardsAuto", got)
	}
}
