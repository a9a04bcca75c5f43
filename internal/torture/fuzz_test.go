package torture

import (
	"encoding/json"
	"testing"

	"omicon/internal/sim"
)

// FuzzScheduleReplay feeds arbitrary mutated schedules through the lenient
// replay adversary against a known-correct protocol and asserts the two
// core robustness properties of the harness: the engine never panics or
// aborts (lenient replay clamps every schedule to legality), and the
// oracle never reports a false violation (phaseking at t=1 with balanced
// inputs keeps its promises under *every* legal schedule, so any verdict
// here would be a harness bug, not a protocol bug).
func FuzzScheduleReplay(f *testing.F) {
	seedSchedules := []sim.Schedule{
		{},
		{Rounds: []sim.ScheduleRound{
			{Round: 1, Corrupt: []int{0}, Drops: []sim.Drop{{From: 0, To: 1}, {From: 0, To: 2}}},
		}},
		{Rounds: []sim.ScheduleRound{
			{Round: 1, Corrupt: []int{3, 3, -2, 99}}, // duplicates and out of range
			{Round: 2, Drops: []sim.Drop{{From: 5, To: 6}, {From: -1, To: 0}}},
			{Round: 7, Corrupt: []int{1, 2, 4}}, // over budget
		}},
	}
	for _, s := range seedSchedules {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	const n, t = 8, 1
	spec, err := FindProtocol("phaseking")
	if err != nil {
		f.Fatal(err)
	}
	proto, bound, err := spec.Build(n, t)
	if err != nil {
		f.Fatal(err)
	}
	// Balanced inputs: both camps larger than t.
	at := &Entry{N: n, T: t, Inputs: TrialInputs(n, 0), Seed: 99}

	f.Fuzz(func(tt *testing.T, data []byte) {
		var s sim.Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return // not a schedule
		}
		if s.NumActions() > 4096 {
			return // pathological blobs add time, not coverage
		}
		run, verdict := replaySchedule(spec, proto, bound, at, s, false, 0)
		if run.err != nil {
			tt.Fatalf("lenient replay must keep every schedule legal, engine said: %v", run.err)
		}
		if verdict.Failed() {
			tt.Fatalf("false violation on a legal schedule: %v (schedule %s)", verdict.Violations, data)
		}
	})
}
