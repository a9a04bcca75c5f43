package adversary

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"omicon/internal/benor"
	"omicon/internal/graph"
	"omicon/internal/sim"
)

// strictChecked wraps a strategy with the shared strict legality checker —
// the same sim.Legality the engine runs (in tolerant mode) at runtime. Any
// recorded error means the strategy emitted an action outside the model's
// rules: over budget, a drop between honest processes, an out-of-range id,
// a double-corruption or a duplicate drop.
type strictChecked struct {
	inner sim.Adversary
	leg   *sim.Legality
	err   error
}

func (c *strictChecked) Name() string { return c.inner.Name() }

func (c *strictChecked) Step(v *sim.View) sim.Action {
	act := c.inner.Step(v)
	if c.err == nil {
		if _, err := c.leg.Check(v.Round, v.Outbox, act); err != nil {
			c.err = fmt.Errorf("round %d: %w", v.Round, err)
		}
	}
	return act
}

// TestStrategiesEmitOnlyLegalActions is the legality property test: every
// built-in strategy, across 100 seeds, emits only strictly legal actions
// against a live protocol execution. The protocol is BenOr — randomized, so
// the coin-reactive strategies (CoinHider, SplitVote) exercise their
// full-information paths — and the engine runs in its usual tolerant mode
// while the wrapper applies the strict contract.
func TestStrategiesEmitOnlyLegalActions(t *testing.T) {
	const n, tBudget = 16, 5
	seeds := 100
	if testing.Short() {
		seeds = 20
	}

	g, err := graph.Build(n, graph.PracticalParams(n))
	if err != nil {
		t.Fatal(err)
	}
	baseSchedule := sim.Schedule{Rounds: []sim.ScheduleRound{
		{Round: 1, Corrupt: []int{3}, Drops: []sim.Drop{{From: 3, To: 0}, {From: 3, To: 1}}},
		{Round: 4, Corrupt: []int{7, 8}},
	}}

	strategies := map[string]func(seed uint64) sim.Adversary{
		"static-crash":     func(uint64) sim.Adversary { return NewStaticCrash(firstK(tBudget)) },
		"random-omission":  func(s uint64) sim.Adversary { return NewRandomOmission(tBudget, 0.75, s) },
		"group-killer":     func(uint64) sim.Adversary { return NewGroupKiller(n, tBudget) },
		"half-visibility":  func(uint64) sim.Adversary { return NewHalfVisibility(tBudget) },
		"split-vote":       func(s uint64) sim.Adversary { return NewSplitVote(tBudget, s) },
		"delayed-strike":   func(uint64) sim.Adversary { return NewDelayedStrike(tBudget) },
		"chaos":            func(s uint64) sim.Adversary { return NewChaos(tBudget, 0.3, 0.7, s) },
		"coin-hider":       func(uint64) sim.Adversary { return NewCoinHider(1) },
		"eclipse":          func(uint64) sim.Adversary { return NewEclipse(g, tBudget, n/4) },
		"rotating-eclipse": func(uint64) sim.Adversary { return NewRotatingEclipse(g, tBudget, 3) },
		"committee-killer": func(uint64) sim.Adversary { return NewCommitteeKiller([]int{1, 5, 9, 13}) },
		"flood-split":      func(uint64) sim.Adversary { return NewFloodSplit(tBudget+1, n-1) },
		"oblivious-crash":  func(s uint64) sim.Adversary { return NewObliviousCrash(n, tBudget, s) },
		"late":             func(s uint64) sim.Adversary { return NewLate(NewSplitVote(tBudget, s), DefaultLateDelay) },
		"late-d0":          func(s uint64) sim.Adversary { return NewLate(NewSplitVote(tBudget, s), 0) },
		"eavesdrop":        func(s uint64) sim.Adversary { return NewEavesdrop(tBudget, n, s) },
		"eavesdrop-narrow": func(s uint64) sim.Adversary { return NewEavesdrop(tBudget, 3, s) },
		"tree-cut":         func(uint64) sim.Adversary { return NewTreeCut(n, tBudget) },
		"budget-schedule":  func(uint64) sim.Adversary { return NewBudgetSchedule(tBudget, 1) },
		"sched-fuzz":       func(s uint64) sim.Adversary { return NewScheduleFuzzer(sim.Schedule{}, tBudget, s) },
		"sched-fuzz-base":  func(s uint64) sim.Adversary { return NewScheduleFuzzer(baseSchedule, tBudget, s) },
	}

	params := benor.DefaultParams(n, tBudget)
	for name, make := range strategies {
		name, make := name, make
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seeds; s++ {
				seed := uint64(s)*977 + 13
				checked := &strictChecked{inner: make(seed), leg: sim.NewStrictLegality(n, tBudget)}
				inputs := make2(n, s)
				_, err := sim.Run(sim.Config{
					N: n, T: tBudget, Inputs: inputs, Seed: seed, Adversary: checked,
				}, benor.Protocol(params))
				if checked.err != nil {
					t.Fatalf("seed %d: illegal action: %v", seed, checked.err)
				}
				if err != nil {
					t.Fatalf("seed %d: engine rejected the strategy: %v", seed, err)
				}
			}
		})
	}
}

// make2 spreads input bits with a seed-dependent pattern so validity,
// unanimity and skew paths all get exercised.
func make2(n, s int) []int {
	in := make([]int, n)
	switch s % 3 {
	case 0:
		for i := range in {
			in[i] = i % 2
		}
	case 1:
		for i := range in {
			in[i] = 1
		}
	}
	return in
}

// TestOutOfRangePendingIdsAreHarmless pins what the corrupted-process mask
// must keep from the map it replaced: a pending corruption batch naming a
// process outside [0, N) neither panics a strategy nor changes what it
// drops for the in-range ids — rejecting the batch, with an error, stays
// sim.Legality's job.
func TestOutOfRangePendingIdsAreHarmless(t *testing.T) {
	const n, budget = 16, 8
	standing := []int{2, 11}
	view := func() *sim.View {
		v := &sim.View{
			Round: 1, N: n, T: budget,
			Inputs:      make2(n, 0),
			Corrupted:   make([]bool, n),
			Terminated:  make([]bool, n),
			Decisions:   make([]int, n),
			Snapshots:   make([]any, n),
			RandomCalls: make([]int64, n),
			RandomBits:  make([]int64, n),
		}
		for _, p := range standing {
			v.Corrupted[p] = true
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if to != from {
					v.Outbox = append(v.Outbox, sim.Msg(from, to, benor.ValueMsg{B: from % 2}))
				}
			}
		}
		return v
	}
	// checkLegal runs act through the engine's checker, primed with the
	// standing corruptions.
	checkLegal := func(v *sim.View, act sim.Action) error {
		leg := sim.NewLegality(n, budget)
		if _, err := leg.Check(0, nil, sim.Action{Corrupt: standing}); err != nil {
			return err
		}
		_, err := leg.Check(v.Round, v.Outbox, act)
		return err
	}

	// The mask every strategy's Step goes through.
	bad := corruptedSet(view(), []int{-1, 3, n})
	if len(bad) != n {
		t.Fatalf("mask has %d entries, want %d", len(bad), n)
	}
	for p, b := range bad {
		if want := p == 2 || p == 3 || p == 11; b != want {
			t.Errorf("mask[%d] = %v, want %v", p, b, want)
		}
	}

	// Every registry family computes its own pending batch from the view,
	// always in range: with corruptions already standing it must stay legal.
	for _, adv := range Registry(n, budget-len(standing), 5) {
		v := view()
		if err := checkLegal(v, adv.Step(v)); err != nil {
			t.Errorf("%s with standing corruptions: %v", adv.Name(), err)
		}
	}

	// The families whose pending batch is a caller-supplied list are the
	// ones that can actually be handed an out-of-range id.
	g, err := graph.Build(n, graph.PracticalParams(n))
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name  string
		build func(targets []int) sim.Adversary
	}{
		{"static-crash", func(ts []int) sim.Adversary { return NewStaticCrash(ts) }},
		{"group-killer", func(ts []int) sim.Adversary { return &GroupKiller{targets: ts} }},
		{"committee-killer", func(ts []int) sim.Adversary { return NewCommitteeKiller(ts) }},
		{"eclipse", func(ts []int) sim.Adversary {
			e := NewEclipse(g, budget, n/4)
			e.selected = ts
			return e
		}},
		{"tree-cut", func(ts []int) sim.Adversary {
			a := NewTreeCut(n, budget)
			a.targets = ts
			return a
		}},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			v := view()
			clean := f.build([]int{1, 5}).Step(v)
			if err := checkLegal(v, clean); err != nil || len(clean.Drop) == 0 {
				t.Fatalf("in-range batch: %d drops, err %v", len(clean.Drop), err)
			}
			dirty := f.build([]int{-1, 1, n, 5}).Step(view())
			if !slices.Equal(dirty.Drop, clean.Drop) {
				t.Errorf("out-of-range ids changed the drops:\n got %v\nwant %v", dirty.Drop, clean.Drop)
			}

			_, err := sim.Run(sim.Config{N: n, T: budget, Inputs: make([]int, n), Seed: 1, Adversary: f.build([]int{-1, 1, n, 5})},
				func(env sim.Env, _ int) (int, error) {
					env.Send(benor.ValueMsg{}, []int{(env.ID() + 1) % n})
					env.Exchange(nil)
					return 0, nil
				})
			if err == nil || !strings.Contains(err.Error(), "adversary corrupted invalid process") {
				t.Errorf("sim.Run = %v, want the invalid-process rejection", err)
			}
		})
	}
}
