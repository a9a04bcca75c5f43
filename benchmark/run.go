package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"omicon/internal/sim"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    uint64
	seconds int
	nproc   int
	outDir  string
	rec     *recorder // set in the traced pass only
}

// nominalSeconds is BENCHMARK.json's run_seconds: the run length the
// workload sizes below are stated for.
const nominalSeconds = 15

// scaled sizes a workload for a run of the given length from its size at
// the nominal run length.
func scaled(nominal, seconds int) int {
	return max(1, (2*nominal*seconds+nominalSeconds)/(2*nominalSeconds))
}

// passResult is what a pass over a workload's ops produced.
type passResult struct {
	ops       int
	failures  []string // one line per failed op or failed check
	allFailed bool
	rows      []costRow
	digest    string
}

func (pr *passResult) failAll(err error) {
	pr.failures = append(pr.failures, err.Error())
	pr.allFailed = true
}

func (pr *passResult) failed() int {
	if pr.allFailed {
		return pr.ops
	}
	return min(len(pr.failures), pr.ops)
}

// instance is a workload after set-up: everything the measured pass
// needs is built and warm.
type instance interface {
	// pass runs the workload's ops; it is the timed part.
	pass() (*passResult, error)
	// verify runs the checks that need not be timed.
	verify(pr *passResult) []string
	close()
}

type workload struct {
	Name string
	// Why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same line.
	Why    string
	setup  func(rc *runCtx) (instance, error)
	layers func(rc *runCtx) (map[string]float64, *passResult, error)
}

var workloads = []workload{
	{
		Name:   "thm1-n1024",
		Why:    "2 Theorem-1 trials per 15 s at n=1024 t=33 vs group-killer, side by side on the default engine: what a single-trial user waits for; sim sort/carve/View and core spreading do nearly all the work.",
		setup:  setupThm1(0),
		layers: layersThm1(0),
	},
	{
		Name:   "thm1-n1024-sharded",
		Why:    "The same trials with Shards=sim.ShardsAuto, one after the other: the same layers through the second engine, so a gain for one engine that costs the other shows (ROADMAP item 2).",
		setup:  setupThm1(sim.ShardsAuto),
		layers: layersThm1(sim.ShardsAuto),
	},
	{
		Name:   "sweep-n256",
		Why:    "One experiments.Thm1Detailed([256], seeds=4) call per 15 s: 36 samples over 9 adversary families on a partrial pool: mid-n, adversary-diverse (incl. the NoFaults fast path), source of the cost table.",
		setup:  setupSweep,
		layers: layersSweep,
	},
	{
		Name:   "torture-inproc",
		Why:    "torture.Run, default 48-cell matrix, 1000 trials per 15 s, DeterminismEvery=10, no corpus or journal: thousands of n<=64 executions where build, goroutine spawn, barrier and oracle dominate.",
		setup:  setupTorture(false),
		layers: layersTorture(false),
	},
	{
		Name:   "torture-durable",
		Why:    "The identical campaign journaled and dispatched over loopback TCP to nproc in-process distrib workers, then resumed from the journal: the only workload where journal, distrib and the JSON codec work.",
		setup:  setupTorture(true),
		layers: layersTorture(true),
	},
	{
		Name:   "tournament-zoo",
		Why:    "One tournament.Run per 15 s, every protocol x every adversary family, 7 trials per cell (3276), traced into a memory sink: third driver, the zoo wrappers, the engine's observer/trace path.",
		setup:  setupTournament,
		layers: layersTournament,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// record is one run of one workload: the result line's content plus what
// the suite and -compare need (costs per op, the artifact digest).
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`
	// WallS is the end-to-end pass's wall, the base of both rates.
	WallS   float64            `json:"wallS,omitempty"`
	Rows    []costRow          `json:"rows"`
	Metrics map[string]float64 `json:"metrics"`
}

// setupRepeats is how many fresh processes set the workload up; setup_s
// is the median of their times.
const setupRepeats = 3

// readyLine is what a -setup-only child prints once its set-up is done.
const readyLine = "ready"

// coldSetups sets the workload up in setupRepeats fresh processes of this
// program, one after another, and returns the seconds from each process's
// start to its ready line. A fresh process pays what a user's process
// pays — runtime start, first heap growth, stacks, listeners — which a
// second set-up in a warm process would not.
func coldSetups(w workload, rc *runCtx) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", w.Name,
			"-seed", strconv.FormatUint(rc.seed, 10), "-seconds", strconv.Itoa(rc.seconds), "-out", rc.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, _ := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if strings.TrimSpace(line) != readyLine {
			return nil, fmt.Errorf("set-up process printed %q, not %q", line, readyLine)
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// runSetupOnly is the child side of coldSetups.
func runSetupOnly(w workload, rc *runCtx) error {
	inst, err := w.setup(rc)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	inst.close()
	return nil
}

// runEndToEnd measures one workload with no decorators: set-up in fresh
// processes, then in this one, one pass over the workload's ops on every
// core, then the untimed checks.
func runEndToEnd(w workload, rc *runCtx) (*record, error) {
	setups, err := coldSetups(w, rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	inst, err := w.setup(rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	runtime.GC() // start every pass from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	pr, err := inst.pass()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("pass: %w", err)
	}
	pr.failures = append(pr.failures, inst.verify(pr)...)

	total, typical := sumRows(pr.rows), typicalCost(pr.rows)
	ops := float64(pr.ops)
	rec := newRecord(w, rc, false, pr)
	rec.WallS = wall
	rec.Metrics = map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       ops / wall,
		"sim_mbit_per_s":  float64(total.CommBits) / 1e6 / wall,
		"alloc_mb_per_op": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops,
		"mallocs_per_op":  float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"ok_share":        float64(pr.ops-pr.failed()) / ops,
		"model_rounds":    float64(typical.Rounds),
		"model_comm_bits": float64(typical.CommBits),
	}
	return rec, nil
}

// runTraced runs the workload's traced pass and writes the span file.
func runTraced(w workload, rc *runCtx) (*record, error) {
	rc.rec = newRecorder()
	m, pr, err := w.layers(rc)
	if err != nil {
		return nil, err
	}
	m["traced.ops"] = float64(pr.ops)
	m["sim.peak_rss_mb"] = peakRSSMB()
	for _, d := range perLayer { // every metric on every workload; 0 where the layer does no work
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	rec := newRecord(w, rc, true, pr)
	rec.Metrics = m
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rc.rec.writeFile(filepath.Join(rc.outDir, "trace.json")); err != nil {
		return nil, err
	}
	return rec, nil
}

func newRecord(w workload, rc *runCtx, traced bool, pr *passResult) *record {
	return &record{
		Workload: w.Name, Seed: rc.seed, Seconds: rc.seconds, Trace: traced,
		Correct: len(pr.failures) == 0, Attempted: pr.ops, Failed: pr.failed(),
		Failures: pr.failures, Digest: pr.digest, Rows: pr.rows,
	}
}

// peakRSSMB reads this process's high-water resident set. Each workload
// runs in a process of its own, so the reading is that workload's.
// Informational: identical runs differ by tens of MB with GC timing.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// defsFor returns the metric definitions a record of this kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRecord prints every metric by name with its unit, the cost rows
// beside the paper's envelopes, and the failures.
func printRecord(w io.Writer, r *record) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced pass, GOMAXPROCS=1)"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(w, "  %-42s %18.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if !r.Trace {
		sum := sumRows(r.Rows)
		fmt.Fprintf(w, "  pass wall %.3f s; fail_share %g; plain sums over every op: rounds %d, commBits %d, randBits %d\n",
			r.WallS, float64(r.Failed)/float64(max(r.Attempted, 1)), sum.Rounds, sum.CommBits, sum.RandBits)
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d digest=%s\n", r.Attempted, r.Failed, r.Digest)
	printRows(w, r.Rows)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// maxRowsPrinted keeps a campaign's table readable; the record holds
// every row.
const maxRowsPrinted = 12

func printRows(w io.Writer, rows []costRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-44s %8s %14s %9s  %s\n", "op", "rounds", "commBits", "randBits", "rounds/(sqrt(n)lg^2 n)  commBits/(n^2 lg^3 n)")
	for i, r := range rows {
		if i == maxRowsPrinted {
			fmt.Fprintf(w, "  ... %d more rows\n", len(rows)-i)
			break
		}
		env := "-"
		if rr, cr, ok := r.envelope(); ok {
			env = fmt.Sprintf("%.3f  %.3f", rr, cr)
		}
		fmt.Fprintf(w, "  %-44s %8d %14d %9d  %s\n", r.Op, r.Rounds, r.CommBits, r.RandBits, env)
	}
}

// resultLine is the last line of a run's standard output.
func resultLine(r *record) string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, d := range defsFor(r.Trace) {
		units[d.Name] = d.Unit
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, name := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, name, strconv.FormatFloat(r.Metrics[name], 'g', -1, 64), units[name])
	}
	b.WriteString("}}")
	return b.String()
}
