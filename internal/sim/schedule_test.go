package sim

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// recordBroadcast runs a 3-round broadcast protocol under adv with a
// recorder and returns the transcript. Each round every process sends its
// input copies times to every other process.
func recordBroadcast(t *testing.T, n, tt, copies int, seed uint64, adv Adversary) *Transcript {
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
				for c := 0; c < copies; c++ {
					env.Send(bitPayload{input}, all)
				}
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

// pairDropper corrupts process 0 in round 1 and then, every round, drops
// the second message on the pair (0, 1) and every message on (0, 2).
type pairDropper struct{}

func (pairDropper) Name() string { return "pair-dropper" }

func (pairDropper) Step(v *View) Action {
	var act Action
	if v.Round == 1 {
		act.Corrupt = []int{0}
	}
	seen := 0
	for i, m := range v.Outbox {
		switch {
		case m.From == 0 && m.To == 1:
			if seen++; seen == 2 {
				act.Drop = append(act.Drop, i)
			}
		case m.From == 0 && m.To == 2:
			act.Drop = append(act.Drop, i)
		}
	}
	return act
}

func TestScheduleRoundTripReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		adv    Adversary
		copies int
		// edit rewrites the recorded schedule into an equivalent one.
		edit func(Schedule) Schedule
	}{
		{name: "broadcast", adv: &scriptedAdversary{corrupt: []int{0, 1}}, copies: 1},
		// Two identical messages per pair: the recorded Drop names the pair,
		// so the replay drops its first occurrence, which is the same message.
		{name: "second-of-two-same-pair", adv: pairDropper{}, copies: 2},
		{name: "rounds-unordered-one-repeated", adv: &scriptedAdversary{corrupt: []int{0, 1}}, copies: 1,
			edit: func(s Schedule) Schedule {
				// A repeated round number replays its last entry, so the
				// leading decoy for round 2 must lose to the recorded one.
				decoy := ScheduleRound{Round: 2, Corrupt: []int{5}, Drops: []Drop{{From: 5, To: 6}}}
				rounds := append([]ScheduleRound{decoy}, s.Rounds...)
				slices.Reverse(rounds[1:])
				return Schedule{Rounds: rounds}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := recordBroadcast(t, 10, 2, tc.copies, 42, tc.adv)
			sched := orig.Schedule()
			if len(sched.Rounds) < 3 {
				t.Fatalf("recording has %d active rounds, want 3", len(sched.Rounds))
			}
			if tc.edit != nil {
				sched = tc.edit(sched)
			}
			for _, strict := range []bool{false, true} {
				replayer := NewScheduleAdversary(orig.Adversary, sched)
				if strict {
					replayer = NewStrictScheduleAdversary(orig.Adversary, sched)
				}
				replayed := recordBroadcast(t, 10, 2, tc.copies, 42, replayer)
				// Same seed + same schedule must reproduce the execution
				// byte-for-byte, header included: the replayer reports the
				// recorded adversary name.
				if !bytes.Equal(transcriptBytes(t, orig), transcriptBytes(t, replayed)) {
					t.Fatalf("strict=%v: replayed transcript differs\norig:   %s\nreplay: %s",
						strict, orig.Summary(), replayed.Summary())
				}
			}
		})
	}
}

// matchByMap is the map-based drop matching the replayers used before
// DropMatcher, kept as its reference: index the outbox by endpoint pair and
// let each drop consume its pair's next occurrence.
func matchByMap(outbox []Message, drops []Drop) []int {
	byPair := make(map[Drop][]int)
	for i, m := range outbox {
		k := Drop{From: m.From, To: m.To}
		byPair[k] = append(byPair[k], i)
	}
	out := make([]int, 0, len(drops))
	for _, d := range drops {
		idxs := byPair[d]
		if len(idxs) == 0 {
			out = append(out, -1)
			continue
		}
		out = append(out, idxs[0])
		byPair[d] = idxs[1:]
	}
	return out
}

// TestDropMatcherMatchesReference compares DropMatcher with matchByMap on
// random canonical outboxes over few processes, so pairs repeat, with drop
// lists that repeat pairs past their occurrences and name absent pairs.
func TestDropMatcherMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var m DropMatcher
	var orderer Orderer[Message]
	var got []int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.IntN(5)
		outbox := make([]Message, r.IntN(30))
		for i := range outbox {
			outbox[i] = Message{From: r.IntN(n), To: r.IntN(n)}
		}
		orderer.Sort(outbox, n)
		drops := make([]Drop, r.IntN(20))
		for i := range drops {
			if len(outbox) > 0 && r.IntN(4) != 0 {
				msg := outbox[r.IntN(len(outbox))]
				drops[i] = Drop{From: msg.From, To: msg.To}
			} else {
				drops[i] = Drop{From: r.IntN(n+2) - 1, To: r.IntN(n+2) - 1}
			}
		}
		got = m.Match(got[:0], outbox, drops)
		if want := matchByMap(outbox, drops); !slices.Equal(got, want) {
			t.Fatalf("trial %d: outbox %v drops %v: got %v, want %v", trial, outbox, drops, got, want)
		}
	}
}

func TestScheduleExtractionElidesQuietRounds(t *testing.T) {
	tr := recordBroadcast(t, 10, 2, 1, 1, nil)
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
	rec, tr := NewRecorder(NewScheduleAdversary("clamped", sched))
	res, err := Run(Config{N: 10, T: 1, Inputs: inputs(10, 5), Seed: 3, Adversary: rec}, majorityOnce)
	if err != nil {
		t.Fatalf("lenient replay must stay legal, got %v", err)
	}
	if got := res.NumCorrupted(); got != 1 {
		t.Fatalf("corrupted = %d, want 1 (budget-clamped)", got)
	}
	if got := tr.Rounds[0].Drops; !slices.Equal(got, []Drop{{From: 0, To: 3}}) {
		t.Fatalf("dropped %v, want only the corrupted sender's message", got)
	}
}

func TestStrictReplayReproducesBudgetViolation(t *testing.T) {
	sched := Schedule{Rounds: []ScheduleRound{{Round: 1, Corrupt: []int{0, 1}}}}
	adv := NewStrictScheduleAdversary("over-budget", sched)
	_, err := Run(Config{N: 10, T: 1, Inputs: inputs(10, 5), Seed: 3, Adversary: adv}, majorityOnce)
	if err == nil {
		t.Fatal("strict replay of an over-budget schedule must reproduce ErrBudget")
	}
}
