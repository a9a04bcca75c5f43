// Package telemetry implements the campaign telemetry plane: process-wide
// counters, gauges and histograms registered in a Registry and rendered as
// a JSON Snapshot — the "metrics" of the /statusz document, and the form
// workers piggyback on dispatch heartbeats so a coordinator's /statusz
// carries every worker's metrics in its worker rows (docs/OBSERVABILITY.md,
// "Campaign telemetry").
//
// Telemetry is strictly observational. Nothing in this package feeds back
// into campaign execution: the byte-identity conformance suites (report,
// log, corpus, journal) must — and do — pass unchanged with telemetry on.
// Two design choices serve that:
//
//   - Every metric method is safe on a nil receiver, and Registry
//     accessors return nil metrics from a nil Registry. Instrumented
//     packages therefore never branch on "telemetry enabled": the calls
//     are always present and cost one nil check when disabled.
//   - Registration is idempotent: asking for the same name returns the
//     existing metric, so a CLI can read the counters a library increments
//     by re-requesting them from the shared Registry.
//
// Snapshots order families by name, so rendering is deterministic.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric type names as they appear in snapshots.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DefBuckets are the default latency buckets (seconds): microsecond trials
// through multi-minute stalls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Counter is a monotonically non-decreasing metric. All methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are no-ops on a
// nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. All methods are
// no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// family is one registered metric: exactly one of c, g (with fn for a
// GaugeFunc) and h is set, by typ.
type family struct {
	name, help, typ string
	bounds          []float64
	c               *Counter
	g               *Gauge
	fn              func() float64
	h               *Histogram
}

// Registry holds a process's metric families. The zero value is not
// usable; call NewRegistry. A nil *Registry is valid everywhere and
// yields nil (no-op) metrics, so instrumented packages need no
// enabled-branch.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// lookup finds or creates the family named name; typ mismatches panic —
// registering one name as two types is a build-time mistake, mirroring
// wire.Registry.Register.
func (r *Registry) lookup(name, help, typ string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds}
		switch typ {
		case TypeCounter:
			f.c = &Counter{}
		case TypeGauge:
			f.g = &Gauge{}
		case TypeHistogram:
			f.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter named name, creating it on first use.
// Repeated calls return the same counter. Nil-safe.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeCounter, nil).c
}

// Gauge returns the gauge named name, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeGauge, nil).g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time (e.g. a queue depth owned by another structure). Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, TypeGauge, nil)
	r.mu.Lock()
	f.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram named name with the given bucket upper
// bounds (nil selects DefBuckets), creating it on first use. The bounds
// of the first registration win. Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.lookup(name, help, TypeHistogram, bounds).h
}
