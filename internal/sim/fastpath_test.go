package sim

import "testing"

// passThrough acts exactly like NoFaults but, not being the NoFaults type,
// forces the engine onto the canonical slow path (sort + View + legality).
type passThrough struct{}

func (passThrough) Name() string      { return "pass-through" }
func (passThrough) Step(*View) Action { return Action{} }

// orderSensitive is a protocol whose decision depends on the exact order of
// its inbox, on its random draws, and on multi-round behaviour — anything
// the fast path could get wrong shows up as a different Result.
func orderSensitive(env Env, input int) (int, error) {
	acc, err := orderDigest(env, input)
	return acc % 2, err
}

// orderDigest is orderSensitive deciding its whole accumulator rather than
// one bit of it, so a change to any inbox shows in the Result.
func orderDigest(env Env, input int) (int, error) {
	all := make([]int, env.N())
	for i := range all {
		all[i] = i
	}
	return sendDigest(env, input, all), nil
}

// sendDigest sends to targets, in their order, for four rounds and mixes
// every delivered message into the digest it returns.
func sendDigest(env Env, input int, targets []int) int {
	acc := env.Rand().Bit()
	for r := 0; r < 4; r++ {
		env.Send(bitPayload{(input + r) % 2}, targets)
		in := env.Exchange(nil)
		for i, m := range in {
			// Position-weighted mix: any reordering of the inbox
			// changes acc, so delivery order is pinned exactly.
			acc = (acc*31 + (i+1)*m.From + m.Payload.(bitPayload).b) % 1000003
		}
	}
	return acc
}

// TestNoFaultsFastPathIdenticalResults pins the fast-path satellite: a
// NoFaults run (which skips View construction, canonical sorting and
// legality bookkeeping) must produce exactly the Result of the full
// adversarial path running a do-nothing adversary.
func TestNoFaultsFastPathIdenticalResults(t *testing.T) {
	n := 24
	run := func(adv Adversary) *Result {
		res, err := Run(Config{N: n, T: 0, Inputs: inputs(n, 11), Seed: 99, Adversary: adv}, orderSensitive)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(NoFaults{})
	slow := run(passThrough{})
	for p := 0; p < n; p++ {
		if fast.Decisions[p] != slow.Decisions[p] {
			t.Fatalf("process %d decided %d on the fast path, %d on the full path",
				p, fast.Decisions[p], slow.Decisions[p])
		}
		if fast.TerminatedAt[p] != slow.TerminatedAt[p] {
			t.Fatalf("process %d terminated at %d vs %d", p, fast.TerminatedAt[p], slow.TerminatedAt[p])
		}
		if fast.Corrupted[p] != slow.Corrupted[p] {
			t.Fatalf("corruption mask diverged at %d", p)
		}
	}
	if fast.Metrics != slow.Metrics {
		t.Fatalf("metrics diverged:\nfast: %v\nslow: %v", fast.Metrics, slow.Metrics)
	}
}

// TestFastPathFlagSelection pins when the short-circuit may engage: only
// for the exact NoFaults adversary on an untraced run.
func TestFastPathFlagSelection(t *testing.T) {
	n := 4
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"nofaults untraced", Config{N: n, Inputs: make([]int, n), Adversary: NoFaults{}}, true},
		{"nil adversary untraced", Config{N: n, Inputs: make([]int, n)}, true},
		{"pass-through adversary", Config{N: n, Inputs: make([]int, n), Adversary: passThrough{}}, false},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		if cfg.Adversary == nil {
			cfg.Adversary = NoFaults{}
		}
		_, benign := cfg.Adversary.(NoFaults)
		got := benign && !cfg.Trace.Enabled()
		if got != tc.want {
			t.Fatalf("%s: fast=%v, want %v", tc.name, got, tc.want)
		}
	}
}
