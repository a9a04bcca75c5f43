package telemetry

import (
	"encoding/json"
	"testing"
)

func TestRegistryIdempotentAccessors(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("omicon_x_total", "help")
	c2 := r.Counter("omicon_x_total", "ignored on re-register")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c3 := r.Counter("omicon_y_total", "help")
	if c3 == c1 {
		t.Fatal("distinct names returned the same counter")
	}
	c1.Add(3)
	if got := c2.Value(); got != 3 {
		t.Fatalf("shared counter value = %d, want 3", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("omicon_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types did not panic")
		}
	}()
	r.Gauge("omicon_clash", "")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics accumulated values")
	}
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d after negative add, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("omicon_lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	s := snap.Families[0].Series[0]
	// 0.05 and 0.1 land in le=0.1 (bounds are inclusive), 0.5 in le=1,
	// 5 in le=10, 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 5 || s.Sum != 105.65 {
		t.Fatalf("count=%d sum=%v, want 5 and 105.65", s.Count, s.Sum)
	}
}

func TestSnapshotDeterministicAndJSONRoundTrip(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name, "help for "+name).Add(7)
		}
		r.Gauge("omicon_g", "").Set(1.5)
		r.Histogram("omicon_h_seconds", "", []float64{1}).Observe(0.5)
		return r
	}
	s1 := build([]string{"omicon_b_total", "omicon_a_total"})
	s2 := build([]string{"omicon_a_total", "omicon_b_total"})
	j1, _ := json.Marshal(s1.Snapshot())
	j2, _ := json.Marshal(s2.Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("registration order changed snapshot JSON:\n%s\n%s", j1, j2)
	}
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	j3, _ := json.Marshal(&back)
	if string(j3) != string(j1) {
		t.Fatalf("snapshot JSON not a fixpoint:\n%s\n%s", j1, j3)
	}
}

// TestSnapshotJSONBytesPinned pins the JSON of a production-shaped
// registry: the bytes every /statusz document and heartbeat Stats payload
// carries.
func TestSnapshotJSONBytesPinned(t *testing.T) {
	r := NewRegistry()
	r.Counter("omicon_torture_trials_total", "Trials committed.").Add(24)
	r.Counter("omicon_torture_violations_total", "Violations found.")
	r.Gauge("omicon_torture_trials_target", "Campaign size.").Set(48)
	r.GaugeFunc("omicon_distrib_inflight_jobs", "Jobs on workers.", func() float64 { return 2.5 })
	h := r.Histogram("omicon_torture_trial_seconds", "Per-trial wall time.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	got, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"families":[` +
		`{"name":"omicon_distrib_inflight_jobs","help":"Jobs on workers.","type":"gauge","series":[{"value":2.5}]},` +
		`{"name":"omicon_torture_trial_seconds","help":"Per-trial wall time.","type":"histogram","bounds":[0.01,0.1,1],"series":[{"buckets":[1,1,1,1],"sum":2.555,"count":4}]},` +
		`{"name":"omicon_torture_trials_target","help":"Campaign size.","type":"gauge","series":[{"value":48}]},` +
		`{"name":"omicon_torture_trials_total","help":"Trials committed.","type":"counter","series":[{"value":24}]},` +
		`{"name":"omicon_torture_violations_total","help":"Violations found.","type":"counter","series":[{}]}]}`
	if string(got) != want {
		t.Fatalf("snapshot JSON moved:\ngot  %s\nwant %s", got, want)
	}
}

func TestGaugeFuncSampledAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("omicon_depth", "", func() float64 { return v })
	if got := r.Snapshot().Families[0].Series[0].Value; got != 1 {
		t.Fatalf("gauge func = %v, want 1", got)
	}
	v = 2
	if got := r.Snapshot().Families[0].Series[0].Value; got != 2 {
		t.Fatalf("gauge func = %v, want 2", got)
	}
}
