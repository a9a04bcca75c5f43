package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// outboxLog wraps an adversary and keeps a copy of every round's
// View.Outbox — the canonical order Drop indices refer to.
type outboxLog struct {
	inner  Adversary
	rounds [][]Message
}

func (l *outboxLog) Name() string { return l.inner.Name() }

func (l *outboxLog) Step(v *View) Action {
	l.rounds = append(l.rounds, append([]Message(nil), v.Outbox...))
	return l.inner.Step(v)
}

// dupDropper corrupts processes 1 and 4 in round 1 and from then on drops
// every message touching them, listing every other index twice — which the
// engine tolerates, and which must uncount each message once.
type dupDropper struct{}

func (dupDropper) Name() string { return "dup-dropper" }

func (dupDropper) Step(v *View) Action {
	var act Action
	if v.Round == 1 {
		act.Corrupt = []int{1, 4}
	}
	for i, m := range v.Outbox {
		if m.From == 1 || m.From == 4 || m.To == 1 || m.To == 4 {
			act.Drop = append(act.Drop, i)
			if i%2 == 0 {
				act.Drop = append(act.Drop, i)
			}
		}
	}
	return act
}

// send is one staged multicast of the conformance traffic.
type send struct {
	payload bitPayload
	to      []int
}

// scriptedSends is process p's traffic in round r. The first round is one
// ascending broadcast, which keeps the canonical order; later rounds make
// several sends with targets out of order, repeated, and naming the sender
// itself, which force the sort.
func scriptedSends(p, n, r int) []send {
	if r == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return []send{{bitPayload{p}, all}}
	}
	a, b := (p+r)%n, (7*p+3*r+1)%n
	return []send{
		{bitPayload{r}, []int{b, a}},
		{bitPayload{p}, []int{(a + 1) % n}},
		{bitPayload{p + r}, []int{p, a, a}},
	}
}

// How a process hands scriptedSends to the engine.
const (
	viaSend  = iota // every send through Env.Send, then Exchange(nil)
	viaOut          // every send as messages in Exchange's out
	viaMixed        // all but the last through Send, the last in out
)

// sendRun is everything observable of one conformance execution.
type sendRun struct {
	res        *Result
	err        error
	outboxes   [][]Message
	inboxes    [][]string
	transcript []byte
}

// runScripted runs scriptedSends with the given hand-over and shard count:
// process p exchanges p%3+2 rounds, so later rounds also carry messages to
// receivers that have returned. A nil adv runs the untraced NoFaults fast
// path, where no View exists to log.
func runScripted(t *testing.T, mode, shards int, adv Adversary) sendRun {
	t.Helper()
	const n = 11
	inboxes := make([][]string, n)
	proto := func(env Env, input int) (int, error) {
		id := env.ID()
		for r := 0; r < id%3+2; r++ {
			sends := scriptedSends(id, n, r)
			var out []Message
			for i, s := range sends {
				if mode == viaSend || (mode == viaMixed && i < len(sends)-1) {
					env.Send(s.payload, s.to)
					continue
				}
				for _, q := range s.to {
					out = append(out, Msg(id, q, s.payload))
				}
			}
			for _, m := range env.Exchange(out) {
				inboxes[id] = append(inboxes[id], fmt.Sprintf("r%d %d->%d %d", r, m.From, m.To, m.Payload.(bitPayload).b))
			}
		}
		return input, nil
	}
	cfg := Config{N: n, T: 2, Inputs: inputs(n, 5), Seed: 9, Shards: shards}
	if adv == nil {
		res, err := Run(cfg, proto)
		return sendRun{res: res, err: err, inboxes: inboxes}
	}
	log := &outboxLog{inner: adv}
	rec, transcript := NewRecorder(log)
	cfg.Adversary = rec
	res, err := Run(cfg, proto)
	var buf bytes.Buffer
	if werr := transcript.WriteJSON(&buf); werr != nil {
		t.Fatal(werr)
	}
	return sendRun{res: res, err: err, outboxes: log.rounds, inboxes: inboxes, transcript: buf.Bytes()}
}

// conformanceShards plus the default, for the staging rows.
var sendShards = append([]int{0}, conformanceShards...)

// TestSendConformance pins that staging is invisible: the same traffic
// handed over through Send, through Exchange's out or mixed gives equal
// View.Outbox per round, inboxes, transcripts and metrics at every shard
// count — with drops, on the NoFaults fast path and with a pass-through
// adversary that forces the View. Two more rows pin what a returning
// process and an invalid target do.
func TestSendConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		adv  func() Adversary
	}{
		{"fast-path", func() Adversary { return nil }},
		{"pass-through", func() Adversary { return passThrough{} }},
		{"drops", func() Adversary { return dupDropper{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runScripted(t, viaOut, 0, tc.adv())
			if want.err != nil {
				t.Fatal(want.err)
			}
			if tc.name == "drops" && want.res.Metrics.Messages == 0 {
				t.Fatal("reference run sent nothing")
			}
			for r, out := range want.outboxes {
				if !inOrder(out) {
					t.Fatalf("round %d: View.Outbox is not in canonical (From, To) order", r+1)
				}
			}
			for _, shards := range sendShards {
				for _, mode := range []int{viaSend, viaOut, viaMixed} {
					got := runScripted(t, mode, shards, tc.adv())
					where := fmt.Sprintf("shards=%d mode=%d", shards, mode)
					if got.err != nil {
						t.Fatalf("%s: %v", where, got.err)
					}
					if got.res.Metrics != want.res.Metrics {
						t.Fatalf("%s: metrics %v, want %v", where, got.res.Metrics, want.res.Metrics)
					}
					if !reflect.DeepEqual(got.outboxes, want.outboxes) {
						t.Fatalf("%s: View.Outbox diverged", where)
					}
					if !reflect.DeepEqual(got.inboxes, want.inboxes) {
						t.Fatalf("%s: inboxes %v, want %v", where, got.inboxes, want.inboxes)
					}
					if !bytes.Equal(got.transcript, want.transcript) {
						t.Fatalf("%s: transcript diverged", where)
					}
				}
			}
		})
	}
	t.Run("send-then-return", sendThenReturn)
	t.Run("invalid-target", sendInvalidTarget)
}

// sendThenReturn: a process that stages sends — one of them to an invalid
// target — and returns without exchanging again sends nothing that round
// and fails nothing, at every shard count.
func sendThenReturn(t *testing.T) {
	const n = 7
	run := func(stage bool, shards int) sendRun {
		log := &outboxLog{inner: passThrough{}}
		rec, transcript := NewRecorder(log)
		res, err := Run(Config{N: n, T: 0, Inputs: inputs(n, 3), Seed: 4, Adversary: rec, Shards: shards},
			func(env Env, input int) (int, error) {
				all := []int{0, 1, 2, 3, 4, 5, 6}
				env.Send(bitPayload{input}, all)
				env.Exchange(nil)
				if env.ID() == 3 {
					if stage {
						env.Send(bitPayload{1}, all)
						env.Send(bitPayload{1}, []int{99})
					}
					return input, nil
				}
				env.Send(bitPayload{input}, all[env.ID():])
				env.Exchange(nil)
				return input, nil
			})
		var buf bytes.Buffer
		if werr := transcript.WriteJSON(&buf); werr != nil {
			t.Fatal(werr)
		}
		return sendRun{res: res, err: err, outboxes: log.rounds, transcript: buf.Bytes()}
	}
	want := run(false, 0)
	if want.err != nil {
		t.Fatal(want.err)
	}
	for _, shards := range sendShards {
		got := run(true, shards)
		if got.err != nil {
			t.Fatalf("shards=%d: %v", shards, got.err)
		}
		if got.res.Metrics != want.res.Metrics || !reflect.DeepEqual(got.outboxes, want.outboxes) ||
			!bytes.Equal(got.transcript, want.transcript) {
			t.Fatalf("shards=%d: a returning process's staged sends went out: metrics %v, want %v",
				shards, got.res.Metrics, want.res.Metrics)
		}
	}
}

// sendInvalidTarget: an invalid target fails the execution with the
// engine's text, and the smallest pid that exchanges wins at every shard
// count — process 0's invalid send does not count, as it returns instead.
func sendInvalidTarget(t *testing.T) {
	const n = 9
	proto := func(env Env, input int) (int, error) {
		switch env.ID() {
		case 0:
			env.Send(bitPayload{0}, []int{99})
			return input, nil
		case 2:
			env.Send(bitPayload{0}, []int{1, 3})
			env.Send(bitPayload{0}, []int{-1, 100})
		case 6:
			env.Send(bitPayload{0}, []int{n})
		case 7:
			env.Exchange([]Message{Msg(7, 12, bitPayload{0})})
			return input, nil
		}
		env.Exchange(nil)
		return input, nil
	}
	const want = "sim: process 2 sent to invalid target -1"
	for _, shards := range sendShards {
		for _, adv := range []Adversary{nil, passThrough{}} {
			_, err := Run(Config{N: n, T: 0, Inputs: inputs(n, 0), Seed: 1, Adversary: adv, Shards: shards}, proto)
			if err == nil || err.Error() != want {
				t.Fatalf("shards=%d adversary=%v: err = %v, want %q", shards, adv, err, want)
			}
		}
	}
}
