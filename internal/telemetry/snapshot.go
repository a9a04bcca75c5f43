package telemetry

import "sort"

// SeriesSnap is a family's value captured at snapshot time. For
// histograms, Buckets holds per-bucket (non-cumulative) counts with the
// overflow bucket last, and Sum/Count the aggregate.
type SeriesSnap struct {
	Value   float64 `json:"value,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
	Sum     float64 `json:"sum,omitempty"`
	Count   int64   `json:"count,omitempty"`
}

// FamilySnap is one metric family captured at snapshot time. Series
// holds the family's one value.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Type   string       `json:"type"`
	Bounds []float64    `json:"bounds,omitempty"`
	Series []SeriesSnap `json:"series"`
}

// Snapshot is a point-in-time copy of a Registry, ordered by family name
// so equal registries snapshot to equal JSON. It is the "metrics" of a
// /statusz document and the payload workers piggyback on heartbeat frames.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// Snapshot captures the registry. Nil-safe: a nil Registry yields an
// empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		var ss SeriesSnap
		switch {
		case f.c != nil:
			ss.Value = float64(f.c.Value())
		case f.h != nil:
			ss.Buckets = make([]int64, len(f.h.counts))
			for i := range f.h.counts {
				ss.Buckets[i] = f.h.counts[i].Load()
			}
			ss.Sum = f.h.Sum()
			ss.Count = f.h.Count()
		case f.fn != nil:
			ss.Value = f.fn()
		default:
			ss.Value = f.g.Value()
		}
		snap.Families = append(snap.Families, FamilySnap{
			Name: f.name, Help: f.help, Type: f.typ, Bounds: f.bounds, Series: []SeriesSnap{ss},
		})
	}
	return snap
}

// Value reads the named family: the value for counters/gauges, the sample
// count for histograms. Zero when the family is absent — the convenience
// /statusz builders lean on, where a metric that never registered simply
// reads as no progress. Nil-safe.
func (s *Snapshot) Value(name string) float64 {
	if s == nil {
		return 0
	}
	for _, f := range s.Families {
		if f.Name != name || len(f.Series) == 0 {
			continue
		}
		if f.Type == TypeHistogram {
			return float64(f.Series[0].Count)
		}
		return f.Series[0].Value
	}
	return 0
}
