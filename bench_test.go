// Benchmarks regenerating every table and figure of the paper; the mapping
// from experiment ids (E1, E2, ...) to paper artifacts is in DESIGN.md and
// the recorded results in EXPERIMENTS.md. Absolute wall-clock numbers are
// simulator throughput; the paper's quantities are reported as custom
// metrics (rounds, commBits, randomBits, ...) per operation.
package omicon_test

import (
	"fmt"
	"math"
	"testing"

	"omicon"
	"omicon/internal/coinflip"
	"omicon/internal/core"
	"omicon/internal/graph"
	"omicon/internal/lowerbound"
	"omicon/internal/partition"
)

// BenchmarkTable1Thm1 (E1) regenerates the Theorem 1 row of Table 1: the
// three complexity metrics of OptimalOmissionsConsensus at maximal fault
// load, against the strongest portfolio adversary, across system sizes.
// Compare the reported rounds/commBits/randBits per op with the envelopes
// sqrt(n) log^2 n, n^2 log^3 n, n^{3/2} log^2 n.
func BenchmarkTable1Thm1(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		t := (n - 1) / 31
		b.Run(fmt.Sprintf("n=%d/t=%d", n, t), func(b *testing.B) {
			inst, err := omicon.NewInstance(omicon.Config{N: n, T: t})
			if err != nil {
				b.Fatal(err)
			}
			var rounds, bits, rand float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv := omicon.SplitVote(t, uint64(i))
				res, err := inst.Run(omicon.SpreadInputs(n, n/2), uint64(i)*977+1, adv)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.CheckConsensus(); err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.RoundsNonFaulty())
				bits += float64(res.Metrics.CommBits)
				rand += float64(res.Metrics.RandomBits)
			}
			b.StopTimer()
			lg := math.Log2(float64(n))
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(bits/float64(b.N), "commBits/op")
			b.ReportMetric(rand/float64(b.N), "randBits/op")
			b.ReportMetric(rounds/float64(b.N)/(math.Sqrt(float64(n))*lg*lg), "rounds/envelope")
			b.ReportMetric(bits/float64(b.N)/(float64(n)*float64(n)*lg*lg*lg), "commBits/envelope")
		})
	}
}

// BenchmarkTable1Thm3 (E2) regenerates the Theorem 3 row: ParamOmissions
// at fixed n across the super-process spectrum. Expect rounds to grow and
// randBits to shrink with x, with the product roughly flat (T x R ~ n^2).
func BenchmarkTable1Thm3(b *testing.B) {
	n := 256
	t := (n - 1) / 61
	for _, x := range []int{1, 4, 16, 64} {
		x := x
		b.Run(fmt.Sprintf("n=%d/x=%d", n, x), func(b *testing.B) {
			inst, err := omicon.NewInstance(omicon.Config{N: n, T: t, Algorithm: omicon.ParamOmissions, X: x})
			if err != nil {
				b.Fatal(err)
			}
			var rounds, randBits, commBits float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := inst.Run(omicon.SpreadInputs(n, n/2), uint64(i)*31+7, omicon.SplitVote(t, uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := res.CheckConsensus(); err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.RoundsNonFaulty())
				randBits += float64(res.Metrics.RandomBits)
				commBits += float64(res.Metrics.CommBits)
			}
			b.StopTimer()
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(randBits/float64(b.N), "randBits/op")
			b.ReportMetric(commBits/float64(b.N), "commBits/op")
			b.ReportMetric(rounds*randBits/float64(b.N)/float64(b.N), "TxR")
		})
	}
}

// BenchmarkTable1LowerBoundBJBO (E3) regenerates the round lower bound row
// [10]: rounds forced on the Ben-Or-style baseline by the coin-hiding
// adversary. The cleanest empirical signature of Omega(t / sqrt(n log n))
// at simulation scale is linear growth in t at fixed n (the per-epoch
// deviation the adversary must cancel is Theta(sqrt(n)), so its budget
// lasts ~t/sqrt(n) epochs); `go run ./cmd/paper -only E3` prints the same
// t-sweep as a table.
func BenchmarkTable1LowerBoundBJBO(b *testing.B) {
	n := 128
	for _, t := range []int{8, 16, 32, 48} {
		t := t
		b.Run(fmt.Sprintf("n=%d/t=%d", n, t), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				pt, err := lowerbound.Measure(lowerbound.Config{
					N: n, T: t, Seeds: 3, BaseSeed: uint64(i)*13 + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds += pt.MeanRounds
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(rounds/float64(b.N)/(float64(t)/math.Sqrt(float64(n)*math.Log2(float64(n)))), "rounds/envelope")
		})
	}
}

// BenchmarkTable1LowerBoundMessages (E4) regenerates the message lower
// bound row [1]: every algorithm in the suite, at linear fault load, sends
// Omega(t^2) messages; the reported msgs/t^2 ratio must stay >= 1.
func BenchmarkTable1LowerBoundMessages(b *testing.B) {
	n := 128
	for _, algo := range []omicon.Algorithm{
		omicon.OptimalOmissions, omicon.ParamOmissions, omicon.BenOr, omicon.PhaseKing,
	} {
		algo := algo
		t := (n - 1) / 61
		b.Run(algo.String(), func(b *testing.B) {
			inst, err := omicon.NewInstance(omicon.Config{N: n, T: t, Algorithm: algo})
			if err != nil {
				b.Fatal(err)
			}
			var msgs float64
			for i := 0; i < b.N; i++ {
				res, err := inst.Run(omicon.SpreadInputs(n, n/2), uint64(i)+5, omicon.GroupKiller(n, t))
				if err != nil {
					b.Fatal(err)
				}
				msgs += float64(res.Metrics.Messages)
			}
			b.ReportMetric(msgs/float64(b.N), "messages/op")
			b.ReportMetric(msgs/float64(b.N)/float64(t*t), "messages/t^2")
		})
	}
}

// BenchmarkTable1Thm2Tradeoff (E5) regenerates the Theorem 2 row: the
// product T x (R+T) across the randomness spectrum of the capped family,
// against the t^2/log n floor (reported as the ratio; must stay >= 1).
func BenchmarkTable1Thm2Tradeoff(b *testing.B) {
	n, t := 64, 20
	for _, coiners := range []int{64, 16, 4} {
		coiners := coiners
		b.Run(fmt.Sprintf("coiners=%d", coiners), func(b *testing.B) {
			var ratio, rounds, calls float64
			for i := 0; i < b.N; i++ {
				pt, err := lowerbound.Measure(lowerbound.Config{
					N: n, T: t, NumCoiners: coiners, Seeds: 1, BaseSeed: uint64(i)*7 + 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio += pt.Ratio
				rounds += pt.MeanRounds
				calls += pt.MeanRandomCalls
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(calls/float64(b.N), "randCalls/op")
			b.ReportMetric(ratio/float64(b.N), "TxR+T/floor")
		})
	}
}

// BenchmarkLemma12CoinGame (E6) regenerates the coin-flipping game: biasing
// success rate with Lemma 12's budget (must exceed 1 - alpha = 0.9).
func BenchmarkLemma12CoinGame(b *testing.B) {
	const alpha = 0.1
	for _, k := range []int{64, 256, 1024} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			budget := coinflip.Budget(k, alpha)
			var rate float64
			for i := 0; i < b.N; i++ {
				res := coinflip.Experiment(coinflip.MajorityGame(k), 1, budget, 500, uint64(i))
				rate += res.SuccessRate()
			}
			b.ReportMetric(rate/float64(b.N), "successRate")
			b.ReportMetric(float64(budget), "budget")
		})
	}
}

// BenchmarkFigure1Structures (F1) regenerates the structural content of
// Figure 1: building the sqrt(n)-decomposition plus the Theorem-4 graph,
// reporting group count/size and graph degree.
func BenchmarkFigure1Structures(b *testing.B) {
	n := 256
	var groups, maxSize, deg float64
	for i := 0; i < b.N; i++ {
		d := partition.Sqrt(n)
		g, err := graph.Build(n, graph.PracticalParams(n))
		if err != nil {
			b.Fatal(err)
		}
		groups = float64(d.NumGroups())
		maxSize = float64(d.MaxGroupSize())
		deg = float64(g.MaxDegree())
	}
	b.ReportMetric(groups, "groups")
	b.ReportMetric(maxSize, "maxGroupSize")
	b.ReportMetric(deg, "maxDegree")
}

// BenchmarkFigure2GroupRelay (F2) regenerates Figure 2's scenario: one
// group aggregating counts through the binary-tree relays, reporting the
// per-group bit cost of Lemma 2.
func BenchmarkFigure2GroupRelay(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		size := size
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			var bits, rounds float64
			for i := 0; i < b.N; i++ {
				rep, err := core.RunAggregationExperiment(omicon.SpreadInputs(size, size/2), nil, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				bits += float64(rep.Metrics.CommBits)
				rounds += float64(rep.Metrics.Rounds)
			}
			b.ReportMetric(bits/float64(b.N), "groupBits/op")
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkFigure3Thresholds (F3) regenerates Figure 3's dynamics: the
// randomness consumed by the full protocol as a function of the input
// one-fraction. Random usage must peak near the balanced inputs (the
// coin-flip zone) and vanish at the unanimous edges.
func BenchmarkFigure3Thresholds(b *testing.B) {
	n, t := 64, 2
	inst, err := omicon.NewInstance(omicon.Config{N: n, T: t})
	if err != nil {
		b.Fatal(err)
	}
	for _, ones := range []int{0, n / 4, n / 2, 3 * n / 4, n} {
		ones := ones
		b.Run(fmt.Sprintf("ones=%d", ones), func(b *testing.B) {
			var rand float64
			for i := 0; i < b.N; i++ {
				res, err := inst.Run(omicon.SpreadInputs(n, ones), uint64(i)*3+1, omicon.SplitVote(t, uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := res.CheckConsensus(); err != nil {
					b.Fatal(err)
				}
				rand += float64(res.Metrics.RandomBits)
			}
			b.ReportMetric(rand/float64(b.N), "randBits/op")
		})
	}
}

// BenchmarkFutureSmallT probes the paper's first open question (Section 6):
// the behaviour of the time bound when t = o(n). With the epoch budget
// max(1, t/sqrt(n)) * log n, rounds are flat in t below t = sqrt(n) (~22
// here) and step up beyond it. The beyond-bound point (t = 45 > n/30) is
// outside Theorem 1's proof; it reports the empirical agreement rate
// instead of asserting it.
func BenchmarkFutureSmallT(b *testing.B) {
	n := 512
	for _, t := range []int{4, 16, 45} {
		t := t
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			inst, err := omicon.NewInstance(omicon.Config{N: n, T: t, AllowLargeT: true})
			if err != nil {
				b.Fatal(err)
			}
			var rounds, agreed float64
			for i := 0; i < b.N; i++ {
				res, err := inst.Run(omicon.SpreadInputs(n, n/2), uint64(i)+9, omicon.SplitVote(t, uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if res.CheckConsensus() == nil {
					agreed++
				} else if 30*t < n {
					b.Fatal("consensus violated inside the proven fault regime")
				}
				rounds += float64(res.RoundsNonFaulty())
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
			b.ReportMetric(agreed/float64(b.N), "agreedRate")
		})
	}
}

// BenchmarkSeparationExhibits quantifies the two related-work separations:
// the committee protocol's subquadratic messages (vs the adaptive floor)
// and FloodSet's round count (vs its omission fragility — correctness is
// covered by tests; the bench reports the costs of the broken-cheap
// protocols next to the paper's safe-but-quadratic one).
func BenchmarkSeparationExhibits(b *testing.B) {
	n, t := 128, 4
	for _, algo := range []omicon.Algorithm{omicon.FloodSet, omicon.OptimalOmissions} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			inst, err := omicon.NewInstance(omicon.Config{N: n, T: t, Algorithm: algo})
			if err != nil {
				b.Fatal(err)
			}
			var msgs, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := inst.Run(omicon.SpreadInputs(n, n/2), uint64(i)+1, nil)
				if err != nil {
					b.Fatal(err)
				}
				msgs += float64(res.Metrics.Messages)
				rounds += float64(res.RoundsNonFaulty())
			}
			b.ReportMetric(msgs/float64(b.N), "messages/op")
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkTheorem4Graph (T4) regenerates the graph property suite:
// deterministic construction plus full verification across sizes.
func BenchmarkTheorem4Graph(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := graph.PracticalParams(n)
			var diam, degen float64
			for i := 0; i < b.N; i++ {
				g, err := graph.Build(n, p)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.VerifyTheorem4(p, uint64(i)); err != nil {
					b.Fatal(err)
				}
				diam = float64(g.Diameter(nil))
				degen = float64(g.Degeneracy())
			}
			b.ReportMetric(diam, "diameter")
			b.ReportMetric(degen, "degeneracy")
		})
	}
}
