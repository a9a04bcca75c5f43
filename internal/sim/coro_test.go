package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"omicon/internal/trace"
)

// The process coroutines and round memory are pooled across executions
// (coro.go). These tests pin what reuse must not change: an execution after
// an aborted or panicking one, or after one of another shape, behaves
// exactly like a fresh one, a panic reaches Run's caller, and idle
// coroutines do not outlive the pool.

// lifecycleN is the process count every lifecycle run shares, so the runs
// of one test draw on the same pooled coroutines.
const lifecycleN = 7

// onOneP runs the test body with GOMAXPROCS=1: the pool then hands the
// crew an execution released straight to the next one, so a leftover of
// the first is seen by the second.
func onOneP(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// lifecycleProto is orderSensitive — multi-round, order- and
// randomness-sensitive — checking its Env's round count on the way, so
// stale process state shows in the Result or the error.
func lifecycleProto(env Env, input int) (int, error) {
	if env.Round() != 0 {
		return -1, fmt.Errorf("process %d starts at round %d", env.ID(), env.Round())
	}
	return orderSensitive(env, input)
}

// cleanRun is the reference execution.
func cleanRun(t *testing.T, shards int) *Result {
	t.Helper()
	res, err := Run(Config{N: lifecycleN, T: 0, Inputs: inputs(lifecycleN, 3), Seed: 5, Shards: shards}, lifecycleProto)
	if err != nil {
		t.Fatalf("shards=%d: clean run: %v", shards, err)
	}
	return res
}

// droppingRun is the reference execution against adv, which may corrupt one
// process and drop its messages; every process decides its whole inbox
// digest. A leftover drop mark can hand a process an arena slot nothing was
// placed in, so a panic fails the test instead of ending it.
func droppingRun(t *testing.T, shards int, adv Adversary) (res *Result) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("shards=%d: dropping run panicked: %v", shards, r)
		}
	}()
	res, err := Run(Config{N: lifecycleN, T: 1, Inputs: inputs(lifecycleN, 3), Seed: 5, Adversary: adv, Shards: shards}, orderDigest)
	if err != nil {
		t.Fatalf("shards=%d: dropping run: %v", shards, err)
	}
	return res
}

// markThenIllegal corrupts process 0 and drops its messages, which marks
// them in the drop mask, then drops the last message, between two honest
// processes: the legality check fails after the marks are made.
type markThenIllegal struct{}

func (markThenIllegal) Name() string { return "mark-then-illegal" }
func (markThenIllegal) Step(v *View) Action {
	act := Action{Corrupt: []int{0}}
	for i, m := range v.Outbox {
		if m.From == 0 {
			act.Drop = append(act.Drop, i)
		}
	}
	act.Drop = append(act.Drop, len(v.Outbox)-1)
	return act
}

// TestAbortedRunLeavesPoolClean runs each kind of aborted execution twice
// between two clean ones: the repeat must deep-equal the first abort, and
// the clean run after must deep-equal the clean run before. A row with a
// clean adversary runs the clean executions against it, so they read the
// pooled drop mask.
func TestAbortedRunLeavesPoolClean(t *testing.T) {
	onOneP(t)
	aborts := []struct {
		name  string
		cfg   Config
		proto Protocol
		clean Adversary
	}{
		{
			name:  "illegal-omission",
			cfg:   Config{T: 1, Adversary: &scriptedAdversary{illegal: true}},
			proto: orderSensitive,
		},
		{
			name:  "max-rounds",
			cfg:   Config{MaxRounds: 2},
			proto: orderSensitive,
		},
		{
			name: "forged-sender",
			proto: func(env Env, input int) (int, error) {
				env.Exchange(nil)
				if env.ID() == 3 {
					env.Exchange([]Message{Msg(2, 0, bitPayload{0})})
				}
				return orderSensitive(env, input)
			},
		},
		{
			name:  "illegal-omission-after-drops",
			cfg:   Config{T: 1, Adversary: markThenIllegal{}},
			proto: orderSensitive,
			clean: &scriptedAdversary{corrupt: []int{1}},
		},
	}
	for _, shards := range []int{0, 3} {
		for _, ab := range aborts {
			cfg := ab.cfg
			cfg.N, cfg.Inputs, cfg.Seed, cfg.Shards = lifecycleN, inputs(lifecycleN, 4), 9, shards
			clean := func() *Result {
				if ab.clean == nil {
					return cleanRun(t, shards)
				}
				return droppingRun(t, shards, ab.clean)
			}
			before := clean()
			first, err1 := Run(cfg, ab.proto)
			again, err2 := Run(cfg, ab.proto)
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("shards=%d %s: errors %v, then %v", shards, ab.name, err1, err2)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("shards=%d %s: repeated abort diverged:\n%+v\n%+v", shards, ab.name, first, again)
			}
			if after := clean(); !reflect.DeepEqual(before, after) {
				t.Fatalf("shards=%d %s: clean run after the abort diverged:\n%+v\n%+v", shards, ab.name, before, after)
			}
		}
	}
}

// descendingSends is orderDigest with every Send naming its targets in
// descending order, so the full path sorts each round's outbox through the
// sort scratch.
func descendingSends(env Env, input int) (int, error) {
	down := make([]int, env.N())
	for i := range down {
		down[i] = env.N() - 1 - i
	}
	return sendDigest(env, input, down), nil
}

// reuseShape is one execution of the crew-reuse tests.
type reuseShape struct {
	name      string
	n, shards int
	path      string    // "fast" (NoFaults, untraced), "full" (recorded) or "traced" (recorded and traced)
	adv       Adversary // nil is a pass-through
	proto     Protocol
}

// reuseShapes vary what a crew's round memory is grown to and how it is
// used: process and shard counts, the three communication paths, drops, an
// outbox the sort reorders, and an abort that leaves drop marks.
func reuseShapes() []reuseShape {
	return []reuseShape{
		{"n7-fast", 7, 0, "fast", nil, orderDigest},
		{"n300-auto-full", 300, ShardsAuto, "full", nil, orderDigest},
		{"n64-3-traced-drops", 64, 3, "traced", &scriptedAdversary{corrupt: []int{5, 40}}, orderDigest},
		{"n7-3-full-descending", 7, 3, "full", nil, descendingSends},
		{"n300-traced-descending", 300, 0, "traced", nil, descendingSends},
		{"n64-full-drops-descending", 64, 0, "full", &scriptedAdversary{corrupt: []int{0}}, descendingSends},
		{"n64-auto-fast-descending", 64, ShardsAuto, "fast", nil, descendingSends},
		{"n7-auto-traced-drops", 7, ShardsAuto, "traced", &scriptedAdversary{corrupt: []int{6}}, orderDigest},
		{"n64-3-illegal-after-drops", 64, 3, "full", markThenIllegal{}, orderDigest},
		{"n300-3-fast", 300, 3, "fast", nil, orderDigest},
	}
}

// reuseOutput is everything a reuse shape's execution lets a caller see.
type reuseOutput struct {
	res               *Result
	err               string
	transcript, trace []byte
}

func runShape(sh reuseShape) reuseOutput {
	cfg := Config{N: sh.n, T: 2, Inputs: inputs(sh.n, sh.n/3), Seed: uint64(sh.n), Shards: sh.shards}
	var out reuseOutput
	var transcript *Transcript
	var traced bytes.Buffer
	if sh.path != "fast" {
		adv := sh.adv
		if adv == nil {
			adv = passThrough{}
		}
		cfg.Adversary, transcript = NewRecorder(adv)
	}
	if sh.path == "traced" {
		cfg.Trace = trace.New(trace.NewJSONL(&traced))
	}
	res, err := Run(cfg, sh.proto)
	out.res, out.trace = res, traced.Bytes()
	if err != nil {
		out.err = err.Error()
	}
	if transcript != nil {
		var buf bytes.Buffer
		if werr := transcript.WriteJSON(&buf); werr != nil {
			out.err += "; transcript: " + werr.Error()
		}
		out.transcript = buf.Bytes()
	}
	return out
}

func assertSameOutput(t *testing.T, name string, want, got reuseOutput) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: err %q, want %q", name, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result diverged:\n%+v\n%+v", name, got.res, want.res)
	}
	if !bytes.Equal(got.transcript, want.transcript) {
		t.Fatalf("%s: transcript diverged", name)
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Fatalf("%s: trace diverged:\n%s", name, firstDiffContext(string(want.trace), string(got.trace)))
	}
}

// TestCrewReuseAcrossShapes runs the reuse shapes forward, then in reverse,
// so each execution draws on round memory a different one grew — larger,
// smaller, sharded differently, left mid-abort — and requires every output
// to be equal across the two orders.
func TestCrewReuseAcrossShapes(t *testing.T) {
	onOneP(t)
	shapes := reuseShapes()
	forward := make([]reuseOutput, len(shapes))
	for i, sh := range shapes {
		forward[i] = runShape(sh)
		if _, abort := sh.adv.(markThenIllegal); abort != (forward[i].err != "") {
			t.Fatalf("%s: err %q", sh.name, forward[i].err)
		}
	}
	for i := len(shapes) - 1; i >= 0; i-- {
		assertSameOutput(t, shapes[i].name+" (reversed)", forward[i], runShape(shapes[i]))
	}
}

// TestCrewReuseAcrossShapesConcurrent runs a rotation of the reuse shapes on
// each of eight goroutines at once, so crews pass between goroutines
// mid-list; every output must equal the serial one.
func TestCrewReuseAcrossShapesConcurrent(t *testing.T) {
	shapes := reuseShapes()
	want := make([]reuseOutput, len(shapes))
	for i, sh := range shapes {
		want[i] = runShape(sh)
	}
	const goroutines = 8
	got := make([][]reuseOutput, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]reuseOutput, len(shapes))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range shapes {
				j := (g + i) % len(shapes)
				got[g][j] = runShape(shapes[j])
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for j, sh := range shapes {
			assertSameOutput(t, fmt.Sprintf("%s (goroutine %d)", sh.name, g), want[j], got[g][j])
		}
	}
}

// lifecyclePanic is what the panicking protocols below raise: a value of
// its own type, so the test can tell it from anything the engine raises.
type lifecyclePanic struct{ pid int }

// recoverRun returns the value a panicking Run raised, or nil.
func recoverRun(cfg Config, proto Protocol) (v any) {
	defer func() { v = recover() }()
	_, _ = Run(cfg, proto)
	return nil
}

// TestProtocolPanicReachesCaller pins the panic path at every shard count:
// the original value reaches Run's caller (the smallest pid's, when two
// processes panic in one round), and the coroutine that panicked is never
// handed another process — the clean runs after stay identical.
func TestProtocolPanicReachesCaller(t *testing.T) {
	onOneP(t)
	proto := func(env Env, input int) (int, error) {
		env.Exchange(nil)
		if id := env.ID(); id == 1 || id == 5 {
			panic(lifecyclePanic{id})
		}
		return orderSensitive(env, input)
	}
	for _, shards := range append([]int{0}, conformanceShards...) {
		before := cleanRun(t, shards)
		for i := 0; i < 3; i++ {
			got := recoverRun(Config{N: lifecycleN, T: 0, Inputs: inputs(lifecycleN, 2), Seed: 1, Shards: shards}, proto)
			if got != (lifecyclePanic{1}) {
				t.Fatalf("shards=%d: Run raised %#v, want %#v", shards, got, lifecyclePanic{1})
			}
			if after := cleanRun(t, shards); !reflect.DeepEqual(before, after) {
				t.Fatalf("shards=%d: clean run after a panic diverged:\n%+v\n%+v", shards, before, after)
			}
		}
	}
}

// panickyAdversary fails in its second round, with every process parked.
type panickyAdversary struct{}

func (panickyAdversary) Name() string { return "panicky" }
func (panickyAdversary) Step(v *View) Action {
	if v.Round == 2 {
		panic(lifecyclePanic{-1})
	}
	return Action{}
}

// TestAdversaryPanicParksProcesses: a panic out of the adversary still
// unwinds the parked processes, pools them and stops the workers on its
// way to the caller, so the next execution is unaffected and nothing is
// left running once the pool lets go.
func TestAdversaryPanicParksProcesses(t *testing.T) {
	onOneP(t)
	base := settleGoroutines(0)
	for _, shards := range []int{0, 3} {
		before := cleanRun(t, shards)
		got := recoverRun(Config{N: lifecycleN, T: 0, Inputs: inputs(lifecycleN, 2), Seed: 1,
			Adversary: panickyAdversary{}, Shards: shards}, orderSensitive)
		if got != (lifecyclePanic{-1}) {
			t.Fatalf("shards=%d: Run raised %#v", shards, got)
		}
		if after := cleanRun(t, shards); !reflect.DeepEqual(before, after) {
			t.Fatalf("shards=%d: clean run after an adversary panic diverged", shards)
		}
	}
	if got := settleGoroutines(base); got > base {
		t.Fatalf("%d goroutines left after idle collections, baseline %d", got, base)
	}
}

// TestIdleCoroutinesReleased: pooled coroutines are parked goroutines, and
// a crew left idle must not keep them for the life of the process — after
// a few collections the goroutine count is back at its baseline.
func TestIdleCoroutinesReleased(t *testing.T) {
	base := settleGoroutines(0) // whatever earlier tests left in the pool goes too
	const n = 300
	if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, Shards: 2}, orderSensitive); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got < base+n {
		t.Fatalf("%d goroutines after the run, want at least %d parked in the pool", got, base+n)
	}
	if got := settleGoroutines(base); got > base {
		t.Fatalf("%d goroutines after idle collections, baseline %d", got, base)
	}
}

// settleGoroutines runs collections until the goroutine count is at most
// want, or has not moved for several of them, and returns it. The pool
// needs two collections to let an idle crew go; its cleanup runs after.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(20 * time.Second)
	n, still := runtime.NumGoroutine(), 0
	for n > want && still < 10 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}
