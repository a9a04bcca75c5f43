//go:build !race

package sim

import "testing"

// TestShardedRoundAllocationBudget is TestEngineRoundAllocationBudget with
// shard counts: once the per-shard scratch is warm, a round costs
// amortized growth only — the phase barriers, chunked View fill and
// parallel carve all run on reused buffers, and the inbox backing comes
// from the reused arena. The same budget of 8 allocs per round as the
// default shard count gates regressions in either the merge or the carve;
// TestShardedSteadyStateZeroAllocs pins the exact zero. Excluded under
// -race: the detector's instrumentation allocates on its own behalf.
func TestShardedRoundAllocationBudget(t *testing.T) {
	const n, rounds = 64, 300
	for _, tc := range []struct {
		name string
		adv  Adversary
	}{{"fast", nil}, {"full", passThrough{}}} {
		for _, shards := range []int{1, 4} {
			proto := func(env Env, input int) (int, error) {
				targets := make([]int, 0, n-1)
				for i := 0; i < n; i++ {
					if i != env.ID() {
						targets = append(targets, i)
					}
				}
				for r := 0; r < rounds; r++ {
					env.Send(bitPayload{1}, targets)
					env.Exchange(nil)
				}
				return 0, nil
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1,
					MaxRounds: rounds + 8, Adversary: tc.adv, Shards: shards}, proto); err != nil {
					t.Fatal(err)
				}
			})
			if perRound := allocs / rounds; perRound > 8 {
				t.Errorf("%s path, shards=%d: %.1f allocs per round (%.0f per run), budget is 8",
					tc.name, shards, perRound, allocs)
			}
		}
	}
}

// TestShardedSteadyStateZeroAllocs is TestEngineSteadyStateZeroAllocs with
// shard counts: a warm round allocates nothing at any shard count,
// measured as the paired-run delta that cancels the O(n) setup.
func TestShardedSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range largeNSizes([]int{64, 1024}) {
		base := 30
		if n >= 4096 {
			base = 10
		}
		for _, tc := range []struct {
			name string
			adv  Adversary
		}{{"fast", nil}, {"full", passThrough{}}} {
			for _, shards := range []int{1, 4} {
				if perRound := steadyStateRoundAllocs(t, n, 0, shards, base, tc.adv, sparseSends); perRound > steadyAllocTolerance {
					t.Errorf("n=%d %s path, shards=%d: %.2f allocs per steady-state round, want 0",
						n, tc.name, shards, perRound)
				}
			}
		}
	}
}
