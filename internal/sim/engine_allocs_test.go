//go:build !race

package sim

import (
	"math"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// TestEngineRoundAllocationBudget gates the hot-path allocation work: with
// processes sending the same payload every round, the engine's own per-round cost
// is amortized setup only — the inbox backing comes from the reused arena.
// The budget of 8 per round is far below what any reintroduced per-round
// View/sort/map allocation would cost (tens per round at n=64); the
// steady-state tests below pin the exact zero. Excluded under -race: the
// detector's instrumentation allocates on its own behalf.
func TestEngineRoundAllocationBudget(t *testing.T) {
	const n, rounds = 64, 300
	for _, tc := range []struct {
		name string
		adv  Adversary
	}{{"fast", nil}, {"full", passThrough{}}} {
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
			if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, MaxRounds: rounds + 8, Adversary: tc.adv}, proto); err != nil {
				t.Fatal(err)
			}
		})
		if perRound := allocs / rounds; perRound > 8 {
			t.Errorf("%s path: %.1f allocs per round (%.0f per run), budget is 8",
				tc.name, perRound, allocs)
		}
	}
}

// TestSetupAllocsPerProcess pins what an execution costs per process before
// its first round: with pooled coroutines (coro.go) a process is a reused
// stack and a few slice entries, not a fresh goroutine, channel pair and
// Env — under 2 allocations each at n=64, where a goroutine per process
// cost 5.3.
func TestSetupAllocsPerProcess(t *testing.T) {
	const n = 64
	in := make([]int, n)
	proto := func(env Env, input int) (int, error) {
		env.Exchange(nil)
		return input, nil
	}
	for _, shards := range []int{0, 2} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Run(Config{N: n, T: 0, Inputs: in, Seed: 1, Shards: shards}, proto); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / n; per >= 2 {
			t.Errorf("shards=%d: %.2f allocations per process (%.0f per run), want under 2", shards, per, allocs)
		}
	}
}

// TestRoundMemoryReuseAllocs pins the round memory a pooled crew carries
// (coro.go): n=256 processes send to all n, three rounds, behind a
// pass-through adversary. The first execution after the pool is emptied
// grows the outbox by doubling, so it allocates at most 2.5x the outbox and
// arena bytes of its largest round (append's 1.25x growth alone would
// allocate about 5x the outbox); a second one, back to back, reuses them
// and allocates under a quarter of the first's bytes.
func TestRoundMemoryReuseAllocs(t *testing.T) {
	onOneP(t)
	const n, rounds = 256, 3
	pids := make([]int, n)
	for i := range pids {
		pids[i] = i
	}
	proto := func(env Env, input int) (int, error) {
		for r := 0; r < rounds; r++ {
			env.Send(bitPayload{1}, pids)
			env.Exchange(nil)
		}
		return 0, nil
	}
	in := make([]int, n)
	bytesOf := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(Config{N: n, T: 0, Inputs: in, Seed: 1, Adversary: passThrough{}}, proto); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC() // the pool keeps a crew through two collections
	runtime.GC()
	first, second := bytesOf(), bytesOf()
	round := uint64(2 * n * n * unsafe.Sizeof(Message{}))
	t.Logf("largest round %d bytes; first execution %d, second %d", round, first, second)
	if first > round*5/2 {
		t.Errorf("first execution allocated %d bytes, over 2.5x the %d bytes of its largest round's outbox and arena", first, round)
	}
	if second >= first/4 {
		t.Errorf("second execution allocated %d bytes, not under a quarter of the first's %d", second, first)
	}
}

// runAllocs measures whole-run heap allocations of an execution with
// corruption budget budget in which every process, each of rounds rounds,
// makes send's Sends and exchanges; pids holds 0..n-1, one slice shared by
// every process. Differencing two
// round counts isolates the steady-state marginal cost of a round from the
// O(n) engine setup (rng sources, per-process slices) that a whole-run
// count amortizes — the very effect behind the historical n=4096
// "allocation cliff", where setup divided by few benchmark iterations read
// as thousands of allocs/op.
func runAllocs(t *testing.T, n, budget, shards, rounds int, adv Adversary, send func(env Env, pids []int)) float64 {
	t.Helper()
	pids := make([]int, n)
	for i := range pids {
		pids[i] = i
	}
	proto := func(env Env, input int) (int, error) {
		for r := 0; r < rounds; r++ {
			send(env, pids)
			env.Exchange(nil)
		}
		return 0, nil
	}
	return testing.AllocsPerRun(1, func() {
		if _, err := Run(Config{N: n, T: budget, Inputs: make([]int, n), Seed: 1,
			MaxRounds: rounds + 8, Adversary: adv, Shards: shards}, proto); err != nil {
			t.Fatal(err)
		}
	})
}

// sparseSends is the workload of BenchmarkEngineRoundSparse: every process
// sends one payload to its ⌊√n⌋ successors modulo n.
func sparseSends(env Env, pids []int) {
	n, id := len(pids), env.ID()
	end := id + 1 + int(math.Sqrt(float64(n)))
	env.Send(bitPayload{1}, pids[id+1:min(end, n)])
	if end > n {
		env.Send(bitPayload{1}, pids[:end-n])
	}
}

// steadyAllocTolerance is the pass threshold for steady-state marginal
// allocations per round: pure noise allowance around zero — any real
// regression costs at least one allocation per round (typically n).
const steadyAllocTolerance = 0.25

// steadyStateRoundAllocs returns the best marginal allocations per round
// observed over a few paired-run trials: each trial differences a 2x-round
// and a 1x-round execution of the identical configuration, so setup costs
// cancel exactly. The minimum is the right statistic — the engine's true
// marginal cost lower-bounds every trial, while the runtime's caches only
// ever add. Processes are coroutines and never park in the scheduler, so
// that noise no longer grows with n; what is left is the shard workers
// (shards >= 2): each phase they and the coordinator park on a channel or
// the phase WaitGroup, taking a park record (sudog) from a per-P cache
// that a collection empties and that goroutines migrating between Ps can
// drain on one P, so a leg occasionally allocates a few fresh ones. A
// collection landing between the legs can also let the pool drop the
// coroutine crew, which the next leg then rebuilds.
func steadyStateRoundAllocs(t *testing.T, n, budget, shards, base int, adv Adversary, send func(env Env, pids []int)) float64 {
	t.Helper()
	best := math.Inf(1)
	for trial := 0; trial < 4; trial++ {
		short := runAllocs(t, n, budget, shards, base, adv, send)
		long := runAllocs(t, n, budget, shards, 2*base, adv, send)
		if d := (long - short) / float64(base); d < best {
			best = d
		}
		if best <= steadyAllocTolerance {
			break
		}
	}
	return best
}

// largeNSizes appends 4096 to sizes when OMICON_LARGEN is set; the large-n
// legs cost seconds each, so they run only on the opt-in CI leg.
func largeNSizes(sizes []int) []int {
	if os.Getenv("OMICON_LARGEN") != "" {
		sizes = append(sizes, 4096)
	}
	return sizes
}

// TestEngineSteadyStateZeroAllocs asserts the tentpole property of the
// arena work: a warm engine round allocates NOTHING — the inbox backing,
// outbox merge, View, drop mask and rng sources are all reused. The 0.25
// threshold is pure noise allowance; any real regression costs at least
// one allocation per round (and typically n).
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range largeNSizes([]int{64, 1024}) {
		base := 30
		if n >= 4096 {
			base = 10
		}
		for _, tc := range []struct {
			name string
			adv  Adversary
		}{{"fast", nil}, {"full", passThrough{}}} {
			if perRound := steadyStateRoundAllocs(t, n, 0, 0, base, tc.adv, sparseSends); perRound > steadyAllocTolerance {
				t.Errorf("n=%d %s path: %.2f allocs per steady-state round, want 0",
					n, tc.name, perRound)
			}
		}
	}
}

// TestSparseRoundAllocsFlatInN is the allocation-cliff regression test:
// steady-state allocs per round must be O(1) in n — in fact zero — for
// one shard and for eight across a 16x range of n. Before the arena work the inbox
// backing alone cost one allocation (and O(n·√n) bytes) per round, and
// benchmark setup amortization made n=4096 sparse rounds read as thousands
// of allocs/op. The n=4096 leg runs only without -short (`make check`
// stays fast; plain `go test ./...` covers it).
func TestSparseRoundAllocsFlatInN(t *testing.T) {
	for _, shards := range []int{0, 8} {
		for _, n := range []int{256, 1024, 4096} {
			if n == 4096 && testing.Short() {
				continue
			}
			base := 30
			if n >= 4096 {
				base = 10
			}
			if perRound := steadyStateRoundAllocs(t, n, 0, shards, base, nil, sparseSends); perRound > steadyAllocTolerance {
				t.Errorf("n=%d shards=%d: %.2f allocs per steady-state round, want O(1) in n (0)",
					n, shards, perRound)
			}
		}
	}
}

// TestSendRoundAllocs pins the staging path: rounds in which every process
// makes several Sends — the two halves of a send to its neighbours on
// either side, sliced from one shared ascending slice, then one to itself,
// which breaks the canonical order and makes the full path sort — allocate
// nothing in steady state, at one shard and at two.
func TestSendRoundAllocs(t *testing.T) {
	multiSends := func(env Env, pids []int) {
		n, id := len(pids), env.ID()
		deg := int(math.Sqrt(float64(n)))
		env.Send(bitPayload{1}, pids[max(0, id-deg):id])
		env.Send(bitPayload{1}, pids[id+1:min(n, id+1+deg)])
		env.Send(bitPayload{0}, pids[id:id+1])
	}
	for _, n := range []int{64, 1024} {
		for _, shards := range []int{0, 2} {
			for _, tc := range []struct {
				name string
				adv  Adversary
			}{{"fast", nil}, {"full", passThrough{}}} {
				if perRound := steadyStateRoundAllocs(t, n, 0, shards, 30, tc.adv, multiSends); perRound > steadyAllocTolerance {
					t.Errorf("n=%d shards=%d %s path: %.2f allocs per steady-state round, want 0",
						n, shards, tc.name, perRound)
				}
			}
		}
	}
}

// TestScheduleReplayAllocs pins the replayer's steady state: strict and
// lenient replay of a schedule that corrupts in round 1 and drops in every
// round — both copies of a repeated (from, to) pair, one more message, and
// a drop that matches nothing — allocate nothing per round, at one shard
// and at two. Every process sends twice to its ⌊√n⌋ successors, so every
// pair carries two messages.
func TestScheduleReplayAllocs(t *testing.T) {
	const base = 30
	twice := func(env Env, pids []int) {
		sparseSends(env, pids)
		sparseSends(env, pids)
	}
	var sched Schedule
	for r := 1; r <= 2*base; r++ {
		sr := ScheduleRound{Round: r, Drops: []Drop{{0, 1}, {0, 1}, {0, 2}, {0, 0}}}
		if r == 1 {
			sr.Corrupt = []int{0}
		}
		sched.Rounds = append(sched.Rounds, sr)
	}
	for _, n := range []int{64, 1024} {
		for _, shards := range []int{0, 2} {
			for _, strict := range []bool{false, true} {
				adv := NewScheduleAdversary("replay", sched)
				if strict {
					adv = NewStrictScheduleAdversary("replay", sched)
				}
				if perRound := steadyStateRoundAllocs(t, n, 1, shards, base, adv, twice); perRound > steadyAllocTolerance {
					t.Errorf("n=%d shards=%d strict=%v: %.2f allocs per steady-state round, want 0",
						n, shards, strict, perRound)
				}
			}
		}
	}
}
