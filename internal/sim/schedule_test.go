package sim

import (
	"bytes"
	"testing"
)

// recordBroadcast runs a 3-round broadcast protocol under adv with a
// recorder and returns the transcript.
func recordBroadcast(t *testing.T, n int, tt int, seed uint64, adv Adversary) *Transcript {
	t.Helper()
	rec, tr := NewRecorder(adv)
	_, err := Run(Config{N: n, T: tt, Inputs: inputs(n, n/2), Seed: seed, Adversary: rec},
		func(env Env, input int) (int, error) {
			all := make([]int, 0, env.N()-1)
			for i := 0; i < env.N(); i++ {
				if i != env.ID() {
					all = append(all, i)
				}
			}
			for r := 0; r < 3; r++ {
				env.Send(bitPayload{input}, all)
				env.Exchange(nil)
			}
			return input, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func transcriptBytes(t *testing.T, tr *Transcript) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleRoundTripReplay(t *testing.T) {
	orig := recordBroadcast(t, 10, 2, 42, &scriptedAdversary{corrupt: []int{0, 1}})
	sched := orig.Schedule()
	if sched.NumActions() == 0 {
		t.Fatal("scripted adversary produced no recorded actions")
	}

	for _, strict := range []bool{false, true} {
		var replayer *ScheduleAdversary
		if strict {
			replayer = NewStrictScheduleAdversary(sched)
		} else {
			replayer = NewScheduleAdversary(sched)
		}
		replayed := recordBroadcast(t, 10, 2, 42, replayer)
		if replayer.Unmatched() != 0 {
			t.Fatalf("strict=%v: %d unmatched drops", strict, replayer.Unmatched())
		}
		// Same seed + same schedule must reproduce the execution
		// byte-for-byte, modulo the adversary name in the header.
		replayed.Adversary = orig.Adversary
		if !orig.Equal(replayed) {
			t.Fatalf("strict=%v: replayed transcript differs\norig:   %s\nreplay: %s",
				strict, orig.Summary(), replayed.Summary())
		}
		if !bytes.Equal(transcriptBytes(t, orig), transcriptBytes(t, replayed)) {
			t.Fatalf("strict=%v: JSON encodings differ", strict)
		}
	}
}

func TestScheduleExtractionElidesQuietRounds(t *testing.T) {
	tr := recordBroadcast(t, 10, 2, 1, nil)
	if s := tr.Schedule(); len(s.Rounds) != 0 {
		t.Fatalf("fault-free schedule has %d active rounds, want 0", len(s.Rounds))
	}
}

func TestLenientReplayClampsIllegalSchedule(t *testing.T) {
	// An over-budget, illegally-dropping schedule: 3 corruptions against
	// t=1 and a drop between two honest processes.
	sched := Schedule{Rounds: []ScheduleRound{{
		Round:   1,
		Corrupt: []int{0, 1, 2},
		Drops:   []Drop{{From: 5, To: 6}, {From: 0, To: 3}},
	}}}
	adv := NewScheduleAdversary(sched)
	res, err := Run(Config{N: 10, T: 1, Inputs: inputs(10, 5), Seed: 3, Adversary: adv}, majorityOnce)
	if err != nil {
		t.Fatalf("lenient replay must stay legal, got %v", err)
	}
	if got := res.NumCorrupted(); got != 1 {
		t.Fatalf("corrupted = %d, want 1 (budget-clamped)", got)
	}
	if adv.Clamped() == 0 {
		t.Fatal("clamped actions were not counted")
	}
}

func TestStrictReplayReproducesBudgetViolation(t *testing.T) {
	sched := Schedule{Rounds: []ScheduleRound{{Round: 1, Corrupt: []int{0, 1}}}}
	adv := NewStrictScheduleAdversary(sched)
	_, err := Run(Config{N: 10, T: 1, Inputs: inputs(10, 5), Seed: 3, Adversary: adv}, majorityOnce)
	if err == nil {
		t.Fatal("strict replay of an over-budget schedule must reproduce ErrBudget")
	}
}

func TestScheduleClone(t *testing.T) {
	s := Schedule{Rounds: []ScheduleRound{{Round: 1, Corrupt: []int{0}, Drops: []Drop{{From: 0, To: 1}}}}}
	c := s.Clone()
	c.Rounds[0].Corrupt[0] = 9
	c.Rounds[0].Drops[0].To = 9
	if s.Rounds[0].Corrupt[0] != 0 || s.Rounds[0].Drops[0].To != 1 {
		t.Fatal("Clone must deep-copy")
	}
}
