package sim

import (
	"strings"
	"testing"

	"omicon/internal/wire"
)

func makeResult() *Result {
	return &Result{
		Adversary:    "test",
		Inputs:       []int{1, 1, 0, 0},
		Decisions:    []int{1, 1, 1, 1},
		TerminatedAt: []int{3, 4, 4, 2},
		Corrupted:    []bool{false, false, true, false},
	}
}

func TestDecisionAndAgreement(t *testing.T) {
	r := makeResult()
	d, err := r.Decision()
	if err != nil || d != 1 {
		t.Fatalf("Decision = %d, %v", d, err)
	}
	// Corrupted process may disagree freely.
	r.Decisions[2] = 0
	if err := r.CheckAgreement(); err != nil {
		t.Fatalf("corrupted disagreement must be tolerated: %v", err)
	}
	// Non-faulty disagreement is a violation.
	r.Decisions[3] = 0
	if err := r.CheckAgreement(); err == nil {
		t.Fatal("non-faulty disagreement must be detected")
	}
}

func TestAgreementRequiresTermination(t *testing.T) {
	r := makeResult()
	r.Decisions[1] = -1
	if err := r.CheckAgreement(); err == nil {
		t.Fatal("undecided non-faulty process must be detected")
	}
	r.Corrupted[1] = true
	if err := r.CheckAgreement(); err != nil {
		t.Fatalf("undecided corrupted process must be tolerated: %v", err)
	}
}

func TestValidity(t *testing.T) {
	r := makeResult()
	// Mixed non-faulty inputs: validity vacuous.
	if err := r.CheckValidity(); err != nil {
		t.Fatalf("mixed inputs: %v", err)
	}
	// Unanimous non-faulty inputs 1 (process 2 is corrupted, its 0 input
	// does not count), decisions all 1: valid.
	r.Inputs = []int{1, 1, 0, 1}
	if err := r.CheckValidity(); err != nil {
		t.Fatalf("unanimous: %v", err)
	}
	// A non-faulty process deciding against the unanimous input violates.
	r.Decisions[0] = 0
	if err := r.CheckValidity(); err == nil {
		t.Fatal("validity violation must be detected")
	}
}

func TestRoundsNonFaultyIgnoresCorrupted(t *testing.T) {
	r := makeResult()
	r.TerminatedAt[2] = 100 // corrupted laggard must not count
	if got := r.RoundsNonFaulty(); got != 4 {
		t.Fatalf("RoundsNonFaulty = %d, want 4", got)
	}
}

func TestNumCorruptedAndString(t *testing.T) {
	r := makeResult()
	if r.NumCorrupted() != 1 {
		t.Fatalf("NumCorrupted = %d", r.NumCorrupted())
	}
	if !strings.Contains(r.String(), "decision=1") {
		t.Fatalf("String() = %q", r.String())
	}
}

type fixedPayload struct{ data []byte }

func (p fixedPayload) AppendWire(buf []byte) []byte { return append(buf, p.data...) }

func TestMessageBitsMatchWireEncoding(t *testing.T) {
	p := fixedPayload{data: []byte{1, 2, 3, 4, 5}}
	m := Msg(0, 1, p)
	if m.Bits() != 40 {
		t.Fatalf("Bits = %d, want 40", m.Bits())
	}
	if m.Bits() != wire.BitLen(p) {
		t.Fatal("Bits must equal the wire encoding length")
	}
}

// TestBroadcastSharesEncodingCost: one Send to several targets stages one
// record per target, each charged the payload's full wire size.
func TestBroadcastSharesEncodingCost(t *testing.T) {
	p := fixedPayload{data: []byte{9, 9}}
	log := &outboxLog{inner: NoFaults{}}
	_, err := Run(Config{N: 5, T: 0, Inputs: make([]int, 5), Seed: 1, Adversary: log},
		func(env Env, input int) (int, error) {
			if env.ID() == 3 {
				env.Send(p, []int{0, 1, 2, 4})
			}
			env.Exchange(nil)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	msgs := log.rounds[0]
	if len(msgs) != 4 {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.From != 3 || m.To != []int{0, 1, 2, 4}[i] || m.Bits() != 16 {
			t.Fatalf("bad message %v", m)
		}
	}
}

// TestCommBitsAccounting verifies the engine accounts bits at send time,
// including messages the adversary drops.
func TestCommBitsAccounting(t *testing.T) {
	n := 4
	adv := &scriptedAdversary{corrupt: []int{0}}
	res, err := Run(Config{N: n, T: 1, Inputs: make([]int, n), Seed: 1, Adversary: adv},
		func(env Env, input int) (int, error) {
			targets := make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i != env.ID() {
					targets = append(targets, i)
				}
			}
			env.Send(fixedPayload{[]byte{7, 7, 7}}, targets)
			env.Exchange(nil)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := int64(n * (n - 1))
	if res.Metrics.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d (drops must still be counted as sent)", res.Metrics.Messages, wantMsgs)
	}
	if res.Metrics.CommBits != wantMsgs*24 {
		t.Fatalf("commBits = %d, want %d", res.Metrics.CommBits, wantMsgs*24)
	}
}

// TestForgedSenderRejected: a protocol cannot spoof another sender.
func TestForgedSenderRejected(t *testing.T) {
	_, err := Run(Config{N: 2, T: 0, Inputs: []int{0, 0}, Seed: 1},
		func(env Env, input int) (int, error) {
			env.Exchange([]Message{Msg(1-env.ID(), env.ID(), fixedPayload{[]byte{1}})})
			return 0, nil
		})
	if err == nil {
		t.Fatal("forged sender must abort the execution")
	}
}

// TestInvalidTargetRejected: sends outside [0, n) abort.
func TestInvalidTargetRejected(t *testing.T) {
	_, err := Run(Config{N: 2, T: 0, Inputs: []int{0, 0}, Seed: 1},
		func(env Env, input int) (int, error) {
			env.Exchange([]Message{Msg(env.ID(), 99, fixedPayload{[]byte{1}})})
			return 0, nil
		})
	if err == nil {
		t.Fatal("invalid target must abort the execution")
	}
}

// TestMessagesToTerminatedAreDiscarded: one process exits early; later
// messages to it must not break the engine.
func TestMessagesToTerminatedAreDiscarded(t *testing.T) {
	res, err := Run(Config{N: 3, T: 0, Inputs: []int{0, 0, 0}, Seed: 1},
		func(env Env, input int) (int, error) {
			if env.ID() == 0 {
				return 7, nil // exits before any round
			}
			for r := 0; r < 3; r++ {
				env.Exchange([]Message{Msg(env.ID(), 0, fixedPayload{[]byte{1}})})
			}
			return 7, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Metrics.Rounds)
	}
	if res.Decisions[0] != 7 || res.TerminatedAt[0] != 0 {
		t.Fatalf("early exit mishandled: %v %v", res.Decisions, res.TerminatedAt)
	}
}

// TestConfigValidation pins the Run argument checks.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 0, Inputs: nil},
		{N: 2, Inputs: []int{0}},
		{N: 2, T: -1, Inputs: []int{0, 0}},
		{N: 2, T: 2, Inputs: []int{0, 0}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, majorityOnce); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}
