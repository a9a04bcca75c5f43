package torture

import (
	"bytes"
	"testing"

	"omicon/internal/adversary"
	"omicon/internal/sim"
)

// FuzzAdversaryScheduleReplay drives the new knowledge-model families
// (late, eavesdrop, tree-cut, budget-schedule) with fuzz-chosen
// parameters through the v1 transcript record/replay path and asserts
// the harness's closure properties: a live run under any family is
// legal (the engine accepts it and the oracle stays silent — phaseking
// at this (n, t) keeps its promises under every legal schedule), and
// the recorded schedule replayed through the STRICT schedule adversary
// reproduces the transcript byte-identically. Any divergence means a
// family leaked nondeterminism or emitted an action the schedule codec
// cannot carry — exactly the bugs record/replay exists to rule out.
func FuzzAdversaryScheduleReplay(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(2))
	f.Add(uint8(1), uint64(42), uint8(9))
	f.Add(uint8(2), uint64(7), uint8(0))
	f.Add(uint8(3), uint64(99), uint8(3))
	f.Add(uint8(0), uint64(13), uint8(0)) // late with d=0: the identity wrapper

	const n, t = 12, 2
	spec, err := FindProtocol("phaseking")
	if err != nil {
		f.Fatal(err)
	}
	proto, bound, err := spec.Build(n, t)
	if err != nil {
		f.Fatal(err)
	}
	inputs := TrialInputs(n, 0) // balanced: both camps larger than t

	f.Fuzz(func(tt *testing.T, family uint8, seed uint64, param uint8) {
		var adv sim.Adversary
		switch family % 4 {
		case 0:
			adv = adversary.NewLate(adversary.NewSplitVote(t, seed), int(param%5))
		case 1:
			adv = adversary.NewEavesdrop(t, int(param)%(n*n), seed)
		case 2:
			adv = adversary.NewTreeCut(n, t)
		case 3:
			adv = adversary.NewBudgetSchedule(t, 1+float64(param%8)/2)
		}

		live := runOnce(spec.Name, proto, bound, adv, n, t, inputs, seed, nil, 0)
		if live.err != nil {
			tt.Fatalf("engine rejected %s: %v", adv.Name(), live.err)
		}
		verdict := Check(CheckInput{
			N: n, T: t, RoundBound: bound,
			Result: live.res, RunErr: live.err, Transcript: live.tr,
		})
		if verdict.Failed() {
			tt.Fatalf("violation under %s: %v", adv.Name(), verdict.Violations)
		}

		// Strict replay: the recorded schedule must reproduce the exact
		// execution — the engine must accept every recorded action as-is.
		at := &Entry{Protocol: spec.Name, Adversary: adv.Name(), N: n, T: t, Inputs: inputs, Seed: seed}
		replay, _ := replaySchedule(spec, proto, bound, at, live.tr.Schedule(), true, 0, nil)
		if replay.err != nil {
			tt.Fatalf("strict replay of %s's schedule rejected: %v", adv.Name(), replay.err)
		}
		b1, b2 := transcriptBytes(live.tr), transcriptBytes(replay.tr)
		if !bytes.Equal(b1, b2) {
			tt.Fatalf("replay of %s's schedule diverged (%d vs %d bytes)", adv.Name(), len(b1), len(b2))
		}
	})
}
