package sim

import (
	"reflect"
	"testing"

	"omicon/internal/rng"
	"omicon/internal/wire"
)

// stubEnv is a parent Env for driving a SubEnv without an engine. It keeps
// the engine's side of the Exchange aliasing contract: it copies targets
// and out during the call, and it hands back one arena that the next
// Exchange overwrites.
type stubEnv struct {
	id, n  int
	staged []Message // what Send staged since the last Exchange
	sent   []Message // the last Exchange's outbox: the staged sends, then out
	inbox  []Message // what the next Exchange delivers
	arena  []Message // backing of the returned inbox, reused every round
}

func (e *stubEnv) ID() int           { return e.id }
func (e *stubEnv) N() int            { return e.n }
func (e *stubEnv) T() int            { return 0 }
func (e *stubEnv) Round() int        { return 0 }
func (e *stubEnv) Rand() *rng.Source { return nil }
func (e *stubEnv) SetSnapshot(any)   {}
func (e *stubEnv) Span(string) func() {
	return func() {}
}

func (e *stubEnv) Send(payload wire.Marshaler, to []int) {
	for _, q := range to {
		e.staged = append(e.staged, Msg(e.id, q, payload))
	}
}

func (e *stubEnv) Exchange(out []Message) []Message {
	e.sent = append(append(e.sent[:0], e.staged...), out...)
	e.staged = e.staged[:0]
	e.arena = append(e.arena[:0], e.inbox...)
	return e.arena
}

// TestSubEnvExchangeBuffers pins what the reused buffers must not change:
// the caller's outbox is read-only, both filters hold, and an inbox is a
// translated copy that survives the parent reusing its arena.
func TestSubEnvExchangeBuffers(t *testing.T) {
	members := []int{7, 2, 4} // local ids follow sorted order: 2, 4, 7
	parent := &stubEnv{id: 4, n: 9}
	sub := NewSubEnv(parent, members, 0)
	if sub.ID() != 1 {
		t.Fatalf("local id = %d, want 1", sub.ID())
	}

	out := []Message{
		Msg(1, -1, bitPayload{0}), // out of range: dropped
		Msg(1, 0, bitPayload{1}),
		Msg(1, 2, bitPayload{2}),
		Msg(1, 3, bitPayload{3}), // out of range: dropped
	}
	outBefore := append([]Message(nil), out...)
	parent.inbox = []Message{
		Msg(2, 4, bitPayload{20}),
		Msg(3, 4, bitPayload{30}), // stray: 3 is not a member
		Msg(7, 4, bitPayload{70}),
	}
	wantSent := []Message{Msg(4, 2, bitPayload{1}), Msg(4, 7, bitPayload{2})}
	wantIn := []Message{Msg(0, 1, bitPayload{20}), Msg(2, 1, bitPayload{70})}

	for round := 1; round <= 3; round++ { // the later rounds run on reused buffers
		in := sub.Exchange(out)
		if !reflect.DeepEqual(out, outBefore) {
			t.Fatalf("round %d: caller's outbox was written: %v", round, out)
		}
		if !reflect.DeepEqual(parent.sent, wantSent) {
			t.Fatalf("round %d: parent received %v, want %v", round, parent.sent, wantSent)
		}
		// The engine reuses its arena for the next round; the inbox the
		// SubEnv returned must not be a view of it.
		for i := range parent.arena {
			parent.arena[i] = Msg(8, 8, bitPayload{99})
		}
		if !reflect.DeepEqual(in, wantIn) {
			t.Fatalf("round %d: inbox %v, want %v", round, in, wantIn)
		}
		if sub.Round() != round {
			t.Fatalf("round %d: Round() = %d", round, sub.Round())
		}
	}

	// An idle round sends nothing and still translates what arrives.
	if in := sub.Exchange(nil); len(parent.sent) != 0 || !reflect.DeepEqual(in, wantIn) {
		t.Fatalf("idle round: parent received %v, inbox %v", parent.sent, in)
	}
}

// TestSubEnvSendTranslation: Send translates local targets to global ids
// and drops the ones outside the group, as Exchange drops them; what it
// staged goes out ahead of Exchange's out, and the caller's targets are
// never written.
func TestSubEnvSendTranslation(t *testing.T) {
	parent := &stubEnv{id: 4, n: 9}
	sub := NewSubEnv(parent, []int{7, 2, 4}, 0)
	to := []int{2, -1, 0, 3}
	for round := 1; round <= 2; round++ {
		sub.Send(bitPayload{5}, to)
		sub.Send(bitPayload{6}, []int{1})
		sub.Exchange([]Message{Msg(1, 0, bitPayload{7})})
		want := []Message{
			Msg(4, 7, bitPayload{5}), Msg(4, 2, bitPayload{5}),
			Msg(4, 4, bitPayload{6}),
			Msg(4, 2, bitPayload{7}),
		}
		if !reflect.DeepEqual(parent.sent, want) {
			t.Fatalf("round %d: parent received %v, want %v", round, parent.sent, want)
		}
		if !reflect.DeepEqual(to, []int{2, -1, 0, 3}) {
			t.Fatalf("round %d: caller's targets were written: %v", round, to)
		}
	}
}
