package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"omicon/internal/adversary"
	"omicon/internal/core"
	"omicon/internal/sim"
)

// TestDecoratorAccounting runs a decorated n=64 trial on one core: the
// layer times must each be positive and together leave the engine a
// positive remainder of the wall (on several cores the per-process step
// clocks would overlap and overshoot it), and the reported split must add
// back up to the wall.
func TestDecoratorAccounting(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const n, budget = 64, 2
	params, err := core.Prepare(n, budget)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	run := func(lt *layerTrace) (*sim.Result, time.Duration) {
		t0 := time.Now()
		res, err := sim.Run(sim.Config{
			N: n, T: budget, Inputs: balancedInputs(n, 7), Seed: 7,
			Adversary: lt.adversary(adversary.NewGroupKiller(n, budget)),
			MaxRounds: params.TotalRoundsBound() + 64,
		}, lt.protocol(core.Protocol(params)))
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(t0)
	}
	lt := newLayerTrace(rec, rec.begin(-1, "op", "op"), "op")
	res, wall := run(lt)
	plain, _ := run(nil)
	if got, want := resultCost(res), resultCost(plain); got != want {
		t.Fatalf("decorators changed the execution: %+v vs %+v", got, want)
	}
	if lt.protoStep <= 0 || lt.advStep <= 0 || lt.bookkeeping <= 0 {
		t.Fatalf("a layer recorded no time: protocol %v adversary %v bookkeeping %v", lt.protoStep, lt.advStep, lt.bookkeeping)
	}
	if rest := wall - lt.protoStep - lt.advStep - lt.bookkeeping; rest <= 0 {
		t.Fatalf("layers overshoot the wall: protocol %v + adversary %v + bookkeeping %v > %v", lt.protoStep, lt.advStep, lt.bookkeeping, wall)
	}
	var spans time.Duration
	for _, name := range lt.spanNames() {
		spans += lt.bySpan[name]
	}
	if spans != lt.protoStep {
		t.Fatalf("span times %v do not partition the protocol step time %v", spans, lt.protoStep)
	}

	m := make(map[string]float64)
	layerMetrics(m, lt, wall, resultCost(res), float64(res.Metrics.Rounds))
	sum := m["sim.self_s"] + m["core.step_s"] + m["adversary.step_s"] + m["decorator.self_s"]
	if math.Abs(sum-wall.Seconds()) > 0.02*wall.Seconds() {
		t.Fatalf("layer self times sum to %.6fs, wall is %.6fs", sum, wall.Seconds())
	}
	if m["sim.sort_ns_per_msg"] <= 0 || m["wire.bitlen_ns_per_payload"] <= 0 || m["adversary.corruptions"] != budget {
		t.Fatalf("micro-measurements missing: %v", m)
	}
	if got := int64(len(rec.spans)) - 1; got != res.Metrics.Rounds {
		t.Fatalf("%d adversary.step spans for %d rounds", got, res.Metrics.Rounds)
	}
}

func TestNoFaultsStaysUnwrapped(t *testing.T) {
	lt := newLayerTrace(nil, -1, "")
	if _, ok := lt.adversary(sim.NoFaults{}).(sim.NoFaults); !ok {
		t.Fatal("sim.NoFaults was wrapped: the engine's fast path would be off in the traced pass")
	}
	if _, ok := lt.adversary(adversary.NewGroupKiller(8, 1)).(*advClock); !ok {
		t.Fatal("a real adversary was not wrapped")
	}
	var none *layerTrace
	if adv := adversary.NewGroupKiller(8, 1); none.adversary(adv) != sim.Adversary(adv) {
		t.Fatal("a nil layerTrace must decorate nothing")
	}
}

// TestSeedChangesInputsOnly: -seed moves the generated inputs and trial
// seeds and nothing else — not the op counts, not the input balance.
func TestSeedChangesInputsOnly(t *testing.T) {
	a, b := balancedInputs(thm1N, derive(1, "thm1-inputs", 0)), balancedInputs(thm1N, derive(2, "thm1-inputs", 0))
	if reflect.DeepEqual(a, b) {
		t.Fatal("two seeds gave the same input vector")
	}
	if !reflect.DeepEqual(a, balancedInputs(thm1N, derive(1, "thm1-inputs", 0))) {
		t.Fatal("the same seed gave two input vectors")
	}
	ones := func(in []int) (k int) {
		for _, v := range in {
			k += v
		}
		return k
	}
	if ones(a) != thm1N/2 || ones(b) != thm1N/2 {
		t.Fatalf("inputs are not balanced: %d and %d ones of %d", ones(a), ones(b), thm1N)
	}
	if derive(1, "x", 0) == derive(1, "y", 0) || derive(1, "x", 0) == derive(1, "x", 1) || sweepBaseSeed(1) == sweepBaseSeed(2) {
		t.Fatal("derived seeds collide")
	}
	// Sizes depend on the run length alone.
	if thm1Ops(nominalSeconds) != 2 || sweepSeeds(nominalSeconds) != 4 || tortureTrials(nominalSeconds) != 1000 ||
		tournamentTrialsPerCell(nominalSeconds)*tournamentCells() != 3276 {
		t.Fatal("nominal sizes moved: BENCHMARK.json and README.md state them")
	}
	if thm1Ops(2*nominalSeconds) != 4 || tortureTrials(nominalSeconds/3) != 333 || scaled(1, 1) != 1 {
		t.Fatal("sizes do not scale with -seconds")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 || median(vals) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(vals))
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: two points extrapolate.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two-point quartiles %v %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Fatalf("one-point quartiles %v %v", q1, q3)
	}
}

func TestPercentiles(t *testing.T) {
	for n, want := range map[int]int{19: 0, 20: 50, 40: 75, 100: 90, 200: 95, 999: 95, 1000: 99} {
		if got := topPercentile(n); got != want {
			t.Errorf("topPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i)
	}
	if got := percentile(vals, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(vals, 100); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 {
		return []float64{c * 0.995, c, c * 1.005, c, c * 0.998, c * 1.002, c, c, c * 1.001, c * 0.999}
	}
	noisy := func(c float64) []float64 {
		return []float64{c * 0.8, c, c * 1.2, c * 0.7, c * 1.3, c, c * 0.9, c * 1.1, c, c}
	}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "alloc_mb_per_op", Better: "lower", Bound: 0.05}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", higher, steady(100), steady(100), verdictOK},
		{"within bound", higher, steady(100), steady(93), verdictOK},
		{"beyond bound", higher, steady(100), steady(85), verdictWorse},
		{"better", higher, steady(100), steady(150), verdictOK},
		{"lower is better, worse", lower, steady(10), steady(10.8), verdictWorse},
		{"lower is better, better", lower, steady(10), steady(5), verdictOK},
		{"noise hides it", higher, noisy(100), noisy(95), verdictUnresolved},
		{"noisy but every run better", higher, noisy(100), noisy(300), verdictOK},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(ops float64, digest string) *results {
		r := &results{}
		for seed := uint64(1); seed <= 3; seed++ {
			r.Runs = append(r.Runs, &record{
				Workload: "torture-inproc", Seed: seed, Seconds: 10, Attempted: 700, Digest: digest,
				Rows:    []costRow{{Op: "core/chaos", cost: cost{Rounds: 10, CommBits: 20}}},
				Metrics: map[string]float64{"ops_per_s": ops + float64(seed)/100, "setup_s": 0.4, "model_rounds": 10},
			})
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(100, "d"), mk(99, "d")); code != 0 {
		t.Fatalf("equal runs compared as different:\n%s", out.String())
	}
	for _, want := range []string{"torture-inproc", "ops_per_s", "ok", "n=3", "3 shared runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareResults(&out, mk(100, "d"), mk(70, "d")); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Fatalf("a 30%% drop passed (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(100, "d"), mk(100, "e")); code != 1 || !strings.Contains(out.String(), "artifact digest") {
		t.Fatalf("a digest change passed (exit %d):\n%s", code, out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "execute", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "execute", Start: 50, End: 90},
		{ID: 3, Parent: 2, Name: "adversary.step", Start: 60, End: 65},
	}
	self, total := selfTimes(spans), totalTimes(spans)
	if self["pass"] != 30 || self["execute"] != 65 || self["adversary.step"] != 5 || total["execute"] != 70 {
		t.Fatalf("self %v total %v", self, total)
	}
}

func TestGoldenComparison(t *testing.T) {
	rows := []costRow{
		{Op: "a", N: 256, cost: cost{Rounds: 241, CommBits: 100, RandBits: 8}},
		{Op: "b", N: 256, cost: cost{Rounds: 241, CommBits: 200, RandBits: 8}},
	}
	g := &golden{Seed: 1, Seconds: 10, Tables: []goldenRows{{Workload: "sweep-n256", Pass: "end-to-end", Rows: rows}}}
	same := &record{Workload: "sweep-n256", Seed: 1, Seconds: 10, Rows: rows}
	if p := checkGolden(g, []*record{same}); len(p) != 0 {
		t.Fatalf("equal tables differ: %v", p)
	}
	moved := append([]costRow(nil), rows...)
	moved[1].CommBits++
	p := checkGolden(g, []*record{{Workload: "sweep-n256", Seed: 1, Seconds: 10, Rows: moved}})
	if len(p) != 1 || !strings.Contains(p[0], `"b"`) || !strings.Contains(p[0], "commBits=201") {
		t.Fatalf("the first differing row is not named: %v", p)
	}
	if p := checkGolden(g, []*record{{Workload: "sweep-n256", Seed: 2, Seconds: 10, Rows: moved}}); len(p) != 0 {
		t.Fatalf("another seed's costs were held against the golden: %v", p)
	}
	if p := checkGolden(g, []*record{{Workload: "thm1-n1024", Seed: 1, Seconds: 10}}); len(p) != 1 {
		t.Fatalf("a workload with no golden table passed: %v", p)
	}
	if rr, cr, ok := rows[0].envelope(); !ok || math.Abs(rr-241/(16*64.0)) > 1e-12 || math.Abs(cr-100/(65536*512.0)) > 1e-15 {
		t.Fatalf("envelope ratios %v %v %v", rr, cr, ok)
	}
	if _, _, ok := (costRow{Op: "sum"}).envelope(); ok {
		t.Fatal("a row without a size has no envelope")
	}
	// The committed golden parses and covers every workload, both passes.
	committed, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, pass := range []string{"end-to-end", "traced"} {
			found := false
			for _, tb := range committed.Tables {
				found = found || (tb.Workload == w.Name && tb.Pass == pass && len(tb.Rows) > 0)
			}
			if !found {
				t.Errorf("%s has no %s table for %s", goldenFile, pass, w.Name)
			}
		}
	}
}

// TestTypicalCost: one replicate is the plain sum; with several, a
// replicate in the tail does not move the metric, a shift of every
// replicate does.
func TestTypicalCost(t *testing.T) {
	rows := func(reps ...int64) []costRow {
		var out []costRow
		for rep, r := range reps {
			for _, op := range []string{"a", "b"} {
				out = append(out, costRow{Op: op, Rep: rep, cost: cost{Rounds: r, CommBits: 10 * r}})
			}
		}
		return out
	}
	if got := typicalCost(rows(241)); got.Rounds != 482 || got.CommBits != 4820 {
		t.Fatalf("one replicate: %+v, want the plain sum", got)
	}
	if got, want := typicalCost(rows(241, 241, 324, 241)), typicalCost(rows(241, 241, 241, 241)); got != want || got.Rounds != 8*241 {
		t.Fatalf("a tail replicate moved the metric: %+v vs %+v", got, want)
	}
	if got := typicalCost(rows(250, 250, 324, 250)); got.Rounds != 8*250 {
		t.Fatalf("a shift of every replicate did not show: %+v", got)
	}
	if got := sumRows(rows(241, 241, 324, 241)); got.Rounds != 2*(3*241+324) {
		t.Fatalf("the plain sum lost the tail: %+v", got)
	}
}

func TestDigest(t *testing.T) {
	if digestOf([]byte("ab"), []byte("c")) == digestOf([]byte("a"), []byte("bc")) {
		t.Fatal("digest ignores part boundaries")
	}
	if digestOf([]byte("x")) != digestOf([]byte("x")) {
		t.Fatal("digest is not a function of its input")
	}
}

// TestManifestMatchesProgram holds BENCHMARK.json to the program: same
// workloads with the same reasons, same metrics with the same units,
// directions and bounds, and every name inside the contract's alphabet.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if manifest.RunSeconds != nominalSeconds || !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) ||
		!reflect.DeepEqual(manifest.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command, paths or run_seconds moved: %+v", manifest)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if got := manifest.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest %+v, program %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, program %d+%d", len(manifest.EndToEnd), len(manifest.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, d := range endToEnd {
		name(d.Name)
		got := manifest.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit, bound or direction outside the contract: %+v", d.Name, d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for i, d := range perLayer {
		name(d.Name)
		if got := manifest.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit or direction outside the contract: %+v", d.Name, d)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 || len(b) > 64<<10 {
		t.Error("manifest outside the contract's size limits")
	}
}

func TestResultLine(t *testing.T) {
	r := &record{Correct: true, Attempted: 3, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = 1.5e9
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	line := resultLine(r)
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if strings.Contains(line, "\n") || got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(endToEnd) {
		t.Fatalf("result line lacks keys: %s", line)
	}
	for _, d := range endToEnd {
		if m := got.Metrics[d.Name]; m.Value == nil || *m.Value != 1.5e9 || m.Unit != d.Unit {
			t.Errorf("%s: %+v", d.Name, m)
		}
	}
}

// TestDurableMatchesInProcess is the byte-identity contract at the size a
// unit test affords: one lap of the matrix through the journal and the
// loopback pool, resumed, against the same lap in-process.
func TestDurableMatchesInProcess(t *testing.T) {
	rc := &runCtx{seed: 3, seconds: 10, nproc: 2, outDir: t.TempDir()}
	const trials = 48
	local, _, tl := runTorture(rc.seed, trials, rc.nproc, localExec, nil)
	if len(local.failures) != 0 {
		t.Fatal(local.failures)
	}
	env, err := newDurableEnv(rc, rc.nproc)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	durable, _, _ := runTorture(rc.seed, trials, rc.nproc, (&tortureInstance{env: env}).exec(), env.journal)
	if len(durable.failures) != 0 {
		t.Fatal(durable.failures)
	}
	if local.digest != durable.digest || firstDifference(local.rows, durable.rows) != "" {
		t.Fatalf("durable campaign differs from the in-process one: %s", firstDifference(local.rows, durable.rows))
	}
	if _, _, failures := replayTorture(env, rc.seed, trials, rc.nproc, durable.digest); len(failures) != 0 {
		t.Fatal(failures)
	}
	if f := fallbackFailures(env.pool); len(f) != 0 {
		t.Fatal(f)
	}
	if sr := reexecSample(tl, nil); len(sr.mismatches) != 0 || sr.cost.Rounds == 0 {
		t.Fatalf("re-execution of the job sample: %v", sr.mismatches)
	}
}
