package sim

import (
	"errors"
	"testing"

	"omicon/internal/wire"
)

// bitPayload is a 1-bit test payload.
type bitPayload struct{ b int }

func (p bitPayload) AppendWire(buf []byte) []byte {
	return wire.AppendUvarint(buf, uint64(p.b))
}

// majorityOnce broadcasts the input once and decides the majority bit.
func majorityOnce(env Env, input int) (int, error) {
	all := make([]int, env.N())
	for i := range all {
		all[i] = i
	}
	env.SetSnapshot(input)
	env.Send(bitPayload{input}, all)
	in := env.Exchange(nil)
	ones, total := 0, 0
	for _, m := range in {
		p, ok := m.Payload.(bitPayload)
		if !ok {
			return -1, errors.New("unexpected payload type")
		}
		total++
		ones += p.b
	}
	if 2*ones >= total {
		return 1, nil
	}
	return 0, nil
}

func inputs(n int, ones int) []int {
	in := make([]int, n)
	for i := 0; i < ones; i++ {
		in[i] = 1
	}
	return in
}

func TestEngineNoFaultsMajority(t *testing.T) {
	n := 16
	res, err := Run(Config{N: n, T: 0, Inputs: inputs(n, 12), Seed: 1}, majorityOnce)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := res.Decision()
	if err != nil {
		t.Fatalf("Decision: %v", err)
	}
	if d != 1 {
		t.Fatalf("decision = %d, want 1", d)
	}
	if res.Metrics.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Metrics.Rounds)
	}
	if res.Metrics.Messages != int64(n*n) {
		t.Fatalf("messages = %d, want %d", res.Metrics.Messages, n*n)
	}
	if res.Metrics.RandomCalls != 0 {
		t.Fatalf("random calls = %d, want 0", res.Metrics.RandomCalls)
	}
}

func TestEngineDeterminism(t *testing.T) {
	n := 12
	run := func() *Result {
		res, err := Run(Config{N: n, T: 0, Inputs: inputs(n, 5), Seed: 7}, func(env Env, input int) (int, error) {
			// Use randomness so determinism of the seeded sources
			// is exercised too.
			b := env.Rand().Bit()
			all := make([]int, env.N())
			for i := range all {
				all[i] = i
			}
			env.Send(bitPayload{b}, all)
			env.Exchange(nil)
			return b, nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	for p := range a.Decisions {
		if a.Decisions[p] != b.Decisions[p] {
			t.Fatalf("nondeterministic decision at %d: %d vs %d", p, a.Decisions[p], b.Decisions[p])
		}
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("nondeterministic metrics: %v vs %v", a.Metrics, b.Metrics)
	}
}

// scriptedAdversary corrupts a fixed set in round 1 and drops everything
// touching it thereafter.
type scriptedAdversary struct {
	corrupt []int
	illegal bool // if set, also drop a message between two honest processes
	over    bool // if set, corrupt more than budget
}

func (s *scriptedAdversary) Name() string { return "scripted" }

func (s *scriptedAdversary) Step(v *View) Action {
	var act Action
	if v.Round == 1 {
		act.Corrupt = s.corrupt
		if s.over {
			for p := 0; p < v.N; p++ {
				act.Corrupt = append(act.Corrupt, p)
			}
		}
	}
	corrupted := make(map[int]bool)
	for p, c := range v.Corrupted {
		if c {
			corrupted[p] = true
		}
	}
	for _, p := range act.Corrupt {
		corrupted[p] = true
	}
	for i, m := range v.Outbox {
		if corrupted[m.From] || corrupted[m.To] {
			act.Drop = append(act.Drop, i)
		} else if s.illegal && len(act.Drop) == 0 {
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

func TestEngineOmissionsSilenceCorrupted(t *testing.T) {
	n := 10
	adv := &scriptedAdversary{corrupt: []int{0, 1}}
	counted := make([]int, n)
	res, err := Run(Config{N: n, T: 2, Inputs: inputs(n, n), Seed: 3, Adversary: adv},
		func(env Env, input int) (int, error) {
			all := make([]int, env.N())
			for i := range all {
				all[i] = i
			}
			env.Send(bitPayload{input}, all)
			in := env.Exchange(nil)
			counted[env.ID()] = len(in)
			return input, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p := 2; p < n; p++ {
		if counted[p] != n-2 {
			t.Fatalf("process %d received %d messages, want %d", p, counted[p], n-2)
		}
	}
	if got := res.NumCorrupted(); got != 2 {
		t.Fatalf("corrupted = %d, want 2", got)
	}
}

func TestEngineRejectsIllegalOmission(t *testing.T) {
	n := 6
	adv := &scriptedAdversary{illegal: true}
	_, err := Run(Config{N: n, T: 1, Inputs: inputs(n, 0), Seed: 3, Adversary: adv}, majorityOnce)
	if !errors.Is(err, ErrIllegalOmission) {
		t.Fatalf("err = %v, want ErrIllegalOmission", err)
	}
}

func TestEngineRejectsBudgetOverrun(t *testing.T) {
	n := 6
	adv := &scriptedAdversary{over: true}
	_, err := Run(Config{N: n, T: 2, Inputs: inputs(n, 0), Seed: 3, Adversary: adv}, majorityOnce)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestEngineMaxRounds(t *testing.T) {
	_, err := Run(Config{N: 2, T: 0, Inputs: []int{0, 0}, Seed: 1, MaxRounds: 5},
		func(env Env, input int) (int, error) {
			for {
				env.Exchange(nil)
			}
		})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestEngineProtocolError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Config{N: 3, T: 0, Inputs: []int{0, 0, 0}, Seed: 1},
		func(env Env, input int) (int, error) {
			if env.ID() == 1 {
				return -1, boom
			}
			env.Exchange(nil)
			return input, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSubEnvTranslation(t *testing.T) {
	n := 9
	members := []int{2, 4, 7}
	res, err := Run(Config{N: n, T: 0, Inputs: inputs(n, n), Seed: 5},
		func(env Env, input int) (int, error) {
			isMember := false
			for _, m := range members {
				if m == env.ID() {
					isMember = true
				}
			}
			if !isMember {
				env.Exchange(nil)
				return input, nil
			}
			sub := NewSubEnv(env, members, 0)
			all := make([]int, sub.N())
			for i := range all {
				all[i] = i
			}
			sub.Send(bitPayload{sub.ID()}, all)
			in := sub.Exchange(nil)
			if len(in) != len(members) {
				return -1, errors.New("wrong subenv inbox size")
			}
			for i, m := range in {
				if m.From != i {
					return -1, errors.New("subenv inbox not relabeled/sorted")
				}
				if m.Payload.(bitPayload).b != i {
					return -1, errors.New("subenv payload mismatch")
				}
			}
			return input, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.CheckConsensus(); err != nil {
		t.Fatalf("consensus: %v", err)
	}
}
