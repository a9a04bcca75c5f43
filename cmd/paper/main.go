// Command paper regenerates every measured table and figure of the
// reproduction as one markdown report, one section per experiment id:
// the Table 1 rows (E1, E2, E3, E5), the Lemma 12 game (E6), the Figure
// 1-2 renderings (F1) and Figure 3 dynamics (F3), the Theorem 4 graph
// suite (T4), the Lemma 13 valency tables (L13) and the separation
// exhibits (SEP). -only selects sections; -quick runs a smoke-scale pass,
// the default is the EXPERIMENTS.md scale. EXPERIMENTS.md holds each
// section's full-scale output verbatim between <!-- paper:ID --> markers;
// `go test ./cmd/paper` checks them and `go test ./cmd/paper -update`
// rewrites them.
//
//	go run ./cmd/paper -quick -out report.md
//	go run ./cmd/paper -only E1,F3
//
// E1 and E2 run on the campaign kernel with the flag bundle
// internal/campaigncli declares for every campaign command: -workers,
// -shards, -journal/-resume, -listen and the observability flags
// (docs/RESILIENCE.md, docs/DISTRIBUTED.md, docs/OBSERVABILITY.md). The
// report is byte-identical at every worker and shard count, resumed or
// not.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"omicon"
	"omicon/internal/adversary"
	"omicon/internal/campaigncli"
	"omicon/internal/coinflip"
	"omicon/internal/experiments"
	"omicon/internal/floodset"
	"omicon/internal/graph"
	"omicon/internal/lowerbound"
	"omicon/internal/partition"
	"omicon/internal/sim"
	"omicon/internal/valency"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(campaigncli.ExitCode(err, 1))
	}
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "smoke scale (seconds instead of the EXPERIMENTS.md scale)")
		out   = flag.String("out", "", "also write the report to this file")
		only  = flag.String("only", "", "comma-separated section ids to run, in report order (default all): "+validIDs())
		s     = campaigncli.Register("paper", false)
	)
	if err := s.Parse(); err != nil {
		return err
	}
	secs, err := selectSections(*only)
	if err != nil {
		return err
	}
	scale := fullScale
	if *quick {
		scale = quickScale
	}

	if err := s.Start(); err != nil {
		return err
	}
	defer s.Close()
	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		w = io.MultiWriter(os.Stdout, f)
	}
	err = report(w, scale, secs, experiments.Exec{
		Workers: s.Workers, Shards: s.Shards,
		Ctx: s.Ctx, Journal: s.Journal, RemoteThm1: s.Thm1Remote(), Telemetry: s.Telemetry,
	})
	s.Interrupted(err, "") // on SIGINT, say what was kept and how to continue
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// section is one experiment of the report. Its id is the -only selector
// and the EXPERIMENTS.md marker; run writes the section body, which is
// what the marker block holds.
type section struct {
	id, title string
	run       func(io.Writer, config, experiments.Exec) error
}

var sections = []section{
	{"E1", "E1 — Table 1, Thm 1 row", e1},
	{"E2", "E2 — Table 1, Thm 3 row", e2},
	{"E3", "E3 — Table 1, [10] row", e3},
	{"E5", "E5 — Table 1, Thm 2 row", e5},
	{"E6", "E6 — Lemma 12 coin game", e6},
	{"F1", "F1 — Figures 1 and 2", f1},
	{"F3", "F3 — Figure 3 dynamics", f3},
	{"T4", "T4 — Theorem 4 graphs", t4},
	{"L13", "L13 — Lemma 13 valency", l13},
	{"SEP", "SEP — Separation exhibits", separations},
}

func validIDs() string {
	ids := make([]string, len(sections))
	for i, s := range sections {
		ids[i] = s.id
	}
	return strings.Join(ids, ", ")
}

// selectSections resolves an -only list to sections in report order; an
// empty list selects every section.
func selectSections(spec string) ([]section, error) {
	names := campaigncli.SplitNames(spec)
	if len(names) == 0 {
		return sections, nil
	}
	want := map[string]bool{}
	for _, id := range names {
		if !slices.ContainsFunc(sections, func(s section) bool { return s.id == id }) {
			return nil, fmt.Errorf("unknown section %q (valid: %s)", id, validIDs())
		}
		want[id] = true
	}
	var out []section
	for _, s := range sections {
		if want[s.id] {
			out = append(out, s)
		}
	}
	return out, nil
}

// report writes the selected sections at scale c under one header.
func report(w io.Writer, c config, secs []section, ex experiments.Exec) error {
	fmt.Fprintf(w, "# omicon reproduction report\n\nScale: %s\n", c.name)
	for _, s := range secs {
		fmt.Fprintf(w, "\n## %s\n\n", s.title)
		if err := s.run(w, c, ex); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
	}
	fmt.Fprintln(w, "\nAll experiments completed; consensus held in every checked run.")
	return nil
}

// config is one report scale. F1, F3's size, E5's (n, t) and L13 are the
// same at both scales.
type config struct {
	name     string
	e1Sizes  []int
	e1Seeds  int
	e2N      int
	e2Xs     []int
	e2Seeds  int
	e3N      int
	e3Ts     []int
	e5Seeds  int // also E3's
	e6Ks     []int
	e6Alphas []float64
	e6Trials int
	f3Seeds  int
	t4Sizes  []int
}

var fullScale = config{
	name:     "full",
	e1Sizes:  []int{64, 128, 256, 512},
	e1Seeds:  2,
	e2N:      256,
	e2Xs:     []int{1, 2, 4, 8, 16, 32},
	e2Seeds:  2,
	e3N:      128,
	e3Ts:     []int{8, 16, 32, 48},
	e5Seeds:  5,
	e6Ks:     []int{16, 64, 256, 1024},
	e6Alphas: []float64{0.5, 0.25, 0.1, 0.01},
	e6Trials: 3000,
	f3Seeds:  20,
	t4Sizes:  []int{128, 256, 512},
}

var quickScale = config{
	name:     "quick",
	e1Sizes:  []int{64, 128},
	e1Seeds:  1,
	e2N:      128,
	e2Xs:     []int{1, 4, 16},
	e2Seeds:  1,
	e3N:      64,
	e3Ts:     []int{8, 20},
	e5Seeds:  2,
	e6Ks:     []int{16, 64},
	e6Alphas: []float64{0.25, 0.1},
	e6Trials: 400,
	f3Seeds:  4,
	t4Sizes:  []int{128},
}

func e1(w io.Writer, c config, ex experiments.Exec) error {
	cells, err := experiments.Thm1Detailed(c.e1Sizes, c.e1Seeds, 1, ex)
	if err != nil {
		return err
	}
	points := experiments.Worst(cells)
	fmt.Fprintf(w, "OptimalOmissionsConsensus at t = (n-1)/31, worst case over the %d-strategy adversary portfolio, %d seeds per (n, adversary).\n\n",
		len(cells[0].Samples)/c.e1Seeds, c.e1Seeds)
	fmt.Fprintln(w, "| n | t | rounds | commBits | randBits | rounds / (sqrt(n) lg^2 n) | commBits / (n^2 lg^3 n) | randBits / (n^1.5 lg^2 n) | worst adversary |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, pt := range points {
		n, lg := float64(pt.N), math.Log2(float64(pt.N))
		fmt.Fprintf(w, "| %d | %d | %d | %d | %d | %.3f | %.3f | %.4f | %s |\n",
			pt.N, pt.T, pt.Rounds, pt.CommBits, pt.RandBits,
			float64(pt.Rounds)/(math.Sqrt(n)*lg*lg),
			float64(pt.CommBits)/(n*n*lg*lg*lg),
			float64(pt.RandBits)/(math.Pow(n, 1.5)*lg*lg),
			pt.WorstAdversary)
	}
	if rfit, bfit, err := experiments.Thm1Fits(points); err == nil {
		fmt.Fprintf(w, "\nFitted: rounds ~ n^%.2f (R^2 = %.3f; paper: n^0.5 polylog), commBits ~ n^%.2f (R^2 = %.3f; paper: n^2 polylog).\n",
			rfit.Exponent, rfit.R2, bfit.Exponent, bfit.R2)
	}
	return nil
}

func e2(w io.Writer, c config, ex experiments.Exec) error {
	n := c.e2N
	// The provable regime t < n/60, and a stress load beyond it at which
	// the group-killer can burn whole round-robin phases.
	tp, ts := (n-1)/61, n/16
	prov, err := experiments.Thm3Sweep(n, tp, c.e2Xs, c.e2Seeds, 1, false, ex)
	if err != nil {
		return err
	}
	stress, err := experiments.Thm3Sweep(n, ts, c.e2Xs, c.e2Seeds, 1, true, ex)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ParamOmissions at n = %d vs the group-killer, spread inputs, means over %d seeds: the provable t = %d (t < n/60) beside the stress load t = %d.\n\n",
		n, c.e2Seeds, tp, ts)
	fmt.Fprintf(w, "| x | T (t=%d) | R (t=%d) | T x R (t=%d) | commBits (t=%d) | T (t=%d) | R (t=%d) | T x R (t=%d) | commBits (t=%d) | T / sqrt(nx) |\n",
		tp, tp, tp, tp, ts, ts, ts, ts)
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for i, p := range prov {
		s := stress[i]
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.0f | %.0f | %.1f | %.1f | %.0f | %.0f | %.1f |\n",
			p.X, p.Rounds, p.RandBits, p.Rounds*p.RandBits, p.CommBits,
			s.Rounds, s.RandBits, s.Rounds*s.RandBits, s.CommBits,
			p.Rounds/math.Sqrt(float64(n*p.X)))
	}
	fmt.Fprintln(w, "\nTheorem 3: T ~ sqrt(nx), R ~ n sqrt(n/x), communication flat in x (up to polylog factors).")
	return nil
}

func e3(w io.Writer, c config, _ experiments.Exec) error {
	fmt.Fprintf(w, "Ben-Or-style baseline vs the coin-hiding adversary at n = %d, means over %d seeds.\n\n", c.e3N, c.e5Seeds)
	fmt.Fprintln(w, "| t | rounds |")
	fmt.Fprintln(w, "|---|---|")
	for _, t := range c.e3Ts {
		pt, err := lowerbound.Measure(lowerbound.Config{N: c.e3N, T: t, Seeds: c.e5Seeds, BaseSeed: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %.1f |\n", t, pt.MeanRounds)
	}
	return nil
}

func e5(w io.Writer, c config, _ experiments.Exec) error {
	n, t := 64, 20
	pts, err := lowerbound.SweepCoiners(n, t, []int{64, 32, 8, 2}, c.e5Seeds, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Randomness-capped rotating-coiner family vs the coin-hiding adversary at n = %d, t = %d, %d seeds; floor t^2 / log2 n = %.0f.\n\n",
		n, t, c.e5Seeds, pts[0].Bound)
	fmt.Fprintln(w, "| coiners/epoch | T | R | T(R+T) | ratio to floor | agreed |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, pt := range pts {
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.0f | %.1f | %d/%d |\n",
			pt.NumCoiners, pt.MeanRounds, pt.MeanRandomCalls, pt.Product, pt.Ratio, pt.Agreements, pt.Seeds)
	}
	return nil
}

func e6(w io.Writer, c config, _ experiments.Exec) error {
	const seed = 7
	fmt.Fprintf(w, "Majority game over uniform bits, %d trials per cell; the greedy adversary hides at most Lemma 12's budget 8 sqrt(k log2(1/alpha)) values.\n\n", c.e6Trials)
	fmt.Fprintln(w, "| k | alpha | budget | success rate | target | mean hidden |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, k := range c.e6Ks {
		for _, alpha := range c.e6Alphas {
			budget := coinflip.Budget(k, alpha)
			res := coinflip.Experiment(coinflip.MajorityGame(k), 1, budget, c.e6Trials, seed)
			below := ""
			if res.SuccessRate() < 1-alpha {
				below = " (below target)"
			}
			fmt.Fprintf(w, "| %d | %.2f | %d | %.4f%s | %.2f | %.2f |\n",
				k, alpha, budget, res.SuccessRate(), below, 1-alpha, res.MeanHidden)
		}
	}
	probe := c.e6Trials / 5
	fmt.Fprintf(w, "\nMinimal budget for a 90 %% bias (%d trials per probe) against sqrt(k):\n\n", probe)
	fmt.Fprintln(w, "| k | min budget | sqrt(k) | ratio |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, k := range c.e6Ks {
		b, sq := coinflip.MinBudgetFor(k, 0.9, probe, seed), math.Sqrt(float64(k))
		fmt.Fprintf(w, "| %d | %d | %.2f | %.3f |\n", k, b, sq, float64(b)/sq)
	}
	return nil
}

// f1 renders Figure 1 (the sqrt(n)-decomposition with per-group expander
// connectivity) and Figure 2 (the binary-tree bag decomposition of the
// first group, the structure GroupBitsAggregation's relays climb).
func f1(w io.Writer, _ config, _ experiments.Exec) error {
	n := 128
	g, err := graph.Build(n, graph.PracticalParams(n))
	if err != nil {
		return err
	}
	d := partition.Sqrt(n)
	fmt.Fprintln(w, "```text")
	fmt.Fprintf(w, "Figure 1 — sqrt(n)-decomposition of %d processes into %d groups (max size %d)\n",
		n, d.NumGroups(), d.MaxGroupSize())
	show := min(d.NumGroups(), 8)
	for gi := 0; gi < show; gi++ {
		members := d.Group(gi)
		internal := g.InternalEdges(members)
		external := -2 * internal
		for _, m := range members {
			external += g.Degree(m)
		}
		fmt.Fprintf(w, "  W_%-2d |%-*s| size=%d  expander links: %d internal, %d crossing\n",
			gi+1, d.MaxGroupSize(), strings.Repeat("#", len(members)), len(members), internal, external)
	}
	if show < d.NumGroups() {
		fmt.Fprintf(w, "  ... %d more groups\n", d.NumGroups()-show)
	}

	size := len(d.Group(0))
	tr := partition.NewTree(d.MaxGroupSize())
	fmt.Fprintf(w, "\nFigure 2 — binary-tree bag decomposition of group W_1 (%d members, %d layers)\n", size, tr.Layers())
	for j := tr.Layers(); j >= 1; j-- {
		var bags []string
		for k := 0; k < tr.NumBags(j); k++ {
			lo, hi := tr.Bag(j, k)
			hi = min(hi, size)
			switch {
			case lo >= hi:
			case hi-lo == 1:
				bags = append(bags, fmt.Sprintf("{%d}", lo))
			default:
				bags = append(bags, fmt.Sprintf("{%d..%d}", lo, hi-1))
			}
		}
		fmt.Fprintf(w, "  layer %d: %s\n", j, strings.Join(bags, " "))
	}
	fmt.Fprintln(w, "  each climb is the 3-round GroupRelay: sources->group, group acks, group->sources")
	fmt.Fprintln(w, "```")
	return nil
}

func f3(w io.Writer, c config, _ experiments.Exec) error {
	n := 64
	var onesList []int
	for f := 0; f <= 10; f++ {
		onesList = append(onesList, n*f/10)
	}
	pts, err := experiments.EpochDynamics(n, 2, onesList, c.f3Seeds, 9)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fault-free epochs of Algorithm 1's voting rule at n = %d, %d seeds per point; the coin zone is Figure 3's [15/30, 18/30).\n\n", n, c.f3Seeds)
	fmt.Fprintln(w, "| ones | one-fraction | unified after 1 epoch | after 3 epochs | coins per triple | zone |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, pt := range pts {
		zone := ""
		if 30*pt.Ones >= 15*n && 30*pt.Ones < 18*n {
			zone = "coin zone"
		}
		fmt.Fprintf(w, "| %d | %.2f | %.2f | %.2f | %.1f | %s |\n",
			pt.Ones, float64(pt.Ones)/float64(n), pt.Unified1, pt.Unified3, pt.MeanCoins, zone)
	}
	return nil
}

func t4(w io.Writer, c config, _ experiments.Exec) error {
	fmt.Fprintln(w, "Theorem 4 properties: (i) sampled expansion of sets of the expansion size, (ii) edge-sparsity, (iii) degree band. Lemma 4 prunes |T| = n/15 vertices at threshold 37Δ/60 (bound: a core of n - 4|T|/3); Lemma 3 grows the (2 log n, Δ/3)-dense neighborhood of vertex 0 (floor: n/10).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| n | Δ | edges | degree band (target) | diameter | degeneracy (α) | expansion size | properties | Lemma 4 core (bound) | Lemma 3 neighborhood (floor) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, n := range c.t4Sizes {
		p := graph.PracticalParams(n)
		g, err := graph.Build(n, p)
		if err != nil {
			return err
		}
		status := "ok"
		if err := g.VerifyTheorem4(p, 7); err != nil {
			status = "FAILED: " + err.Error()
		}
		removed := make([]int, n/15)
		for i := range removed {
			removed[i] = i * 2 % n
		}
		core := g.PruneLemma4(removed, 37.0/60.0*float64(p.Delta))
		dense := g.GrowDenseNeighborhood(0, 2*graph.LogCeil(n), float64(p.Delta)/3, nil)
		fmt.Fprintf(w, "| %d | %d | %d | [%d, %d] ([%.0f, %.0f]) | %d | %d (%.2f) | %d | %s | %d (%d) | %d (%d) |\n",
			n, p.Delta, g.M(), g.MinDegree(), g.MaxDegree(),
			(1-p.DegreeSlack)*float64(p.Delta), (1+p.DegreeSlack)*float64(p.Delta),
			g.Diameter(nil), g.Degeneracy(), p.SparsityFactor, p.ExpansionSize, status,
			len(core), n-4*len(removed)/3, len(dense), n/10)
	}
	return nil
}

func l13(w io.Writer, _ config, _ experiments.Exec) error {
	n, proto := 3, valency.Majority(1)
	fmt.Fprintf(w, "Valency of every input assignment of majority flooding (n = %d, %d round), fault-free and with each single process adversary-controlled.\n\n", n, proto.Rounds())
	fmt.Fprint(w, "| inputs | fault-free |")
	for p := 0; p < n; p++ {
		fmt.Fprintf(w, " p%d corrupted |", p)
	}
	fmt.Fprintf(w, "\n|---|---|%s\n", strings.Repeat("---|", n))
	for mask := 0; mask < 1<<n; mask++ {
		inputs := make([]int, n)
		label := ""
		for i := range inputs {
			inputs[i] = (mask >> i) & 1
			label += fmt.Sprint(inputs[i])
		}
		fmt.Fprintf(w, "| %s | %s |", label, valency.NewAnalyzer(proto, n, -1).Classify(inputs))
		for p := 0; p < n; p++ {
			fmt.Fprintf(w, " %s |", valency.NewAnalyzer(proto, n, p).Classify(inputs))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nLemma 13 witnesses (input chain walk, one corrupted process):")
	fmt.Fprintln(w)
	for p := 0; p < n; p++ {
		a := valency.NewAnalyzer(proto, n, p)
		inputs, pivot, found := a.Lemma13Witness()
		if !found {
			fmt.Fprintf(w, "- corrupted p%d: NO WITNESS (would refute the lemma)\n", p)
			continue
		}
		fmt.Fprintf(w, "- corrupted p%d: witness inputs %v (pivot index %d) -> %s\n", p, inputs, pivot, a.Classify(inputs))
	}
	return nil
}

func separations(w io.Writer, _ config, _ experiments.Exec) error {
	// FloodSet: crash-correct, omission-broken.
	n, t := 12, 2
	in := omicon.UnanimousInputs(n, 1)
	in[0] = 0
	res, err := sim.Run(sim.Config{
		N: n, T: t, Inputs: in, Seed: 3,
		Adversary: adversary.NewFloodSplit(floodset.Rounds(t), n-1),
	}, floodset.Protocol())
	if err != nil {
		return err
	}
	broke := res.CheckConsensus() != nil
	fmt.Fprintf(w, "- FloodSet under the one-corruption flood-split attack: consensus violated = %v (expected true)\n", broke)

	// The paper's algorithm under the same attack.
	inst, err := omicon.NewInstance(omicon.Config{N: 64, T: 2})
	if err != nil {
		return err
	}
	res2, err := inst.Run(omicon.SpreadInputs(64, 32), 3, adversary.NewFloodSplit(floodset.Rounds(2), 63))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "- OptimalOmissionsConsensus under the same attack: consensus violated = %v (expected false)\n",
		res2.CheckConsensus() != nil)
	if !broke || res2.CheckConsensus() != nil {
		return fmt.Errorf("separation exhibit did not reproduce")
	}
	return nil
}
