package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// benchRounds drives one Run of `rounds` all-to-all rounds under the given
// adversary (nil selects the NoFaults fast path). Each process rebuilds its
// broadcast every round, the shape real protocols have.
func benchRounds(b *testing.B, n, rounds int, adv Adversary) *Result {
	b.Helper()
	res, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, MaxRounds: rounds + 8, Adversary: adv},
		func(env Env, input int) (int, error) {
			targets := make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i != env.ID() {
					targets = append(targets, i)
				}
			}
			payload := bitPayload{1}
			for r := 0; r < rounds; r++ {
				env.Exchange(Broadcast(env.ID(), payload, targets))
			}
			return 0, nil
		})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkEngineRoundThroughput measures the simulator's cost per
// communication phase with all-to-all traffic — the figure that bounds how
// large an n the experiment suite can afford. With no adversary configured
// this exercises the NoFaults fast path.
func BenchmarkEngineRoundThroughput(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		n := n
		b.Run(byN(n), func(b *testing.B) {
			b.ReportAllocs()
			res := benchRounds(b, n, b.N, nil)
			b.ReportMetric(float64(res.Metrics.Messages)/float64(b.N), "messages/round")
		})
	}
}

// BenchmarkEngineRoundAdversarial is the same workload forced down the full
// adversarial path (canonical sort, View construction, legality checking)
// by a do-nothing adversary that is not the NoFaults type.
func BenchmarkEngineRoundAdversarial(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		n := n
		b.Run(byN(n), func(b *testing.B) {
			b.ReportAllocs()
			res := benchRounds(b, n, b.N, passThrough{})
			b.ReportMetric(float64(res.Metrics.Messages)/float64(b.N), "messages/round")
		})
	}
}

// BenchmarkEngineRoundOverhead isolates the engine's own per-round cost:
// every process builds its outbox once and resends the same slice, so the
// allocations reported here are pure harness overhead, not protocol work.
func BenchmarkEngineRoundOverhead(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		n := n
		for _, tc := range []struct {
			name string
			adv  Adversary
		}{{"fast", nil}, {"full", passThrough{}}} {
			tc := tc
			b.Run(byN(n)+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				rounds := b.N
				_, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, MaxRounds: rounds + 8, Adversary: tc.adv},
					func(env Env, input int) (int, error) {
						targets := make([]int, 0, n-1)
						for i := 0; i < n; i++ {
							if i != env.ID() {
								targets = append(targets, i)
							}
						}
						out := Broadcast(env.ID(), bitPayload{1}, targets)
						for r := 0; r < rounds; r++ {
							env.Exchange(out)
						}
						return 0, nil
					})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkEngineRoundSparse is the large-n regime: every process resends
// a prebuilt ⌊√n⌋-target outbox each round — the message density of a
// Theorem-1 execution, where all-to-all traffic would make a memory
// benchmark out of an engine one. The arena/zero-alloc work is aimed
// squarely here; TestSparseRoundAllocsFlatInN pins the steady-state
// marginal allocations of this workload (setup amortization removed) at
// zero.
func BenchmarkEngineRoundSparse(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rounds := b.N
			deg := int(math.Sqrt(float64(n)))
			_, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, MaxRounds: rounds + 8},
				func(env Env, input int) (int, error) {
					targets := make([]int, deg)
					for j := range targets {
						targets[j] = (env.ID() + 1 + j*deg) % n
					}
					out := Broadcast(env.ID(), bitPayload{1}, targets)
					for r := 0; r < rounds; r++ {
						env.Exchange(out)
					}
					return 0, nil
				})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchOrderer times Orderer.Sort on one gossip round's worth of traffic
// at n=1024 (every process sends to 32 ascending targets), restored from a
// template before each sort. Sorted is what the engines hand over every
// round — the early return, one read pass; Shuffled is the same batch in
// random order — that pass wasted, then the two counting passes. Compare
// at -cpu 1.
func benchOrderer(b *testing.B, shuffle bool) {
	const n, deg = 1024, 32
	tmpl := make([]Message, 0, n*deg)
	for p := 0; p < n; p++ {
		for j := 0; j < deg; j++ {
			tmpl = append(tmpl, Msg(p, p%deg+j*deg, bitPayload{1}))
		}
	}
	if shuffle {
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(tmpl), func(i, j int) { tmpl[i], tmpl[j] = tmpl[j], tmpl[i] })
	}
	buf := make([]Message, len(tmpl))
	var o Orderer[Message]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, tmpl)
		o.Sort(buf, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tmpl)), "ns/msg")
}

func BenchmarkOrdererSorted(b *testing.B)   { benchOrderer(b, false) }
func BenchmarkOrdererShuffled(b *testing.B) { benchOrderer(b, true) }

func byN(n int) string {
	switch n {
	case 16:
		return "n=16"
	case 64:
		return "n=64"
	default:
		return "n=256"
	}
}
