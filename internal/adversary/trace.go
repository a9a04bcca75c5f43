package adversary

import (
	"fmt"
	"io"

	"omicon/internal/sim"
)

// Traced decorates any strategy with a per-round execution log: candidate-
// value counts among live processes, decided counts, corruptions and drops.
// It is the observability hook behind `cmd/omicon -advtrace` and renders the
// dynamics of Figure 3 (counts wandering through the threshold zones) as
// text.
type Traced struct {
	inner sim.Adversary
	w     io.Writer
}

// NewTraced wraps inner, logging to w.
func NewTraced(inner sim.Adversary, w io.Writer) *Traced {
	if inner == nil {
		inner = sim.NoFaults{}
	}
	return &Traced{inner: inner, w: w}
}

// Name implements sim.Adversary.
func (t *Traced) Name() string { return t.inner.Name() + "+trace" }

// Step implements sim.Adversary.
func (t *Traced) Step(v *sim.View) sim.Action {
	act := t.inner.Step(v)
	ones, zeros, decided, operative := 0, 0, 0, 0
	for p, snap := range v.Snapshots {
		if v.Terminated[p] {
			continue
		}
		o, ok := observe(snap)
		if !ok {
			continue
		}
		if o.CandidateBit() == 1 {
			ones++
		} else {
			zeros++
		}
		if o.HasDecided() {
			decided++
		}
		if o.IsOperative() {
			operative++
		}
	}
	corrupted := 0
	for _, c := range v.Corrupted {
		if c {
			corrupted++
		}
	}
	terminated := 0
	for _, d := range v.Terminated {
		if d {
			terminated++
		}
	}
	fmt.Fprintf(t.w, "round %4d | ones=%3d zeros=%3d decided=%3d operative=%3d | corrupted=%2d(+%d) drops=%4d msgs=%5d terminated=%d\n",
		v.Round, ones, zeros, decided, operative,
		corrupted, len(act.Corrupt), len(act.Drop), len(v.Outbox), terminated)
	return act
}
