package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"omicon/internal/experiments"
	"omicon/internal/journal"
	"omicon/internal/telemetry"
	"omicon/internal/torture"
)

// campaignRun captures every observable artifact of one torture campaign
// — report, log, corpus files, journal bytes — with the scratch directory
// normalized out of path-bearing text.
type campaignRun struct {
	dir        string
	report     *torture.Report
	reportJSON string
	log        string
	corpus     map[string]string
	journal    []byte
}

// remarshalReport rebuilds reportJSON after a test mutated the report
// (e.g. redacting the quarantine list), re-applying path normalization.
func (c *campaignRun) remarshalReport(t *testing.T) {
	t.Helper()
	b, err := json.MarshalIndent(c.report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	c.reportJSON = strings.ReplaceAll(string(b), c.dir, "$DIR")
}

// runTortureCampaign executes one campaign with the given Remote hook
// (nil = fully in-process) and captures its artifacts. Journal options
// (e.g. journal.Observe) pass through to the campaign journal.
func runTortureCampaign(t *testing.T, o torture.Options, remote func(ctx context.Context, job torture.Job) (*torture.Outcome, error), jopts ...journal.Option) campaignRun {
	t.Helper()
	dir := t.TempDir()
	var logBuf bytes.Buffer
	o.CorpusDir = dir
	o.Log = &logBuf
	o.Remote = remote
	jpath := filepath.Join(dir, "campaign.wal")
	j, _, err := journal.Open(jpath, jopts...)
	if err != nil {
		t.Fatal(err)
	}
	o.Journal = j
	rep, err := torture.Run(o)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("campaign produced no violations; the comparison would not cover corpus paths")
	}
	norm := func(s string) string { return strings.ReplaceAll(s, dir, "$DIR") }
	repJSON, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jbytes, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[string]string)
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() == "campaign.wal" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		corpus[de.Name()] = norm(string(data))
	}
	return campaignRun{
		dir:        dir,
		report:     rep,
		reportJSON: norm(string(repJSON)),
		log:        norm(logBuf.String()),
		corpus:     corpus,
		journal:    jbytes,
	}
}

// assertRunsIdentical compares two campaign captures byte for byte.
func assertRunsIdentical(t *testing.T, aName, bName string, a, b campaignRun) {
	t.Helper()
	if a.reportJSON != b.reportJSON {
		t.Errorf("reports diverge:\n--- %s ---\n%s\n--- %s ---\n%s", aName, a.reportJSON, bName, b.reportJSON)
	}
	if a.log != b.log {
		t.Errorf("logs diverge:\n--- %s ---\n%s--- %s ---\n%s", aName, a.log, bName, b.log)
	}
	if !bytes.Equal(a.journal, b.journal) {
		t.Errorf("journals diverge between %s (%d bytes) and %s (%d bytes)", aName, len(a.journal), bName, len(b.journal))
	}
	if len(a.corpus) != len(b.corpus) {
		t.Fatalf("corpus file counts diverge: %d (%s) vs %d (%s)", len(a.corpus), aName, len(b.corpus), bName)
	}
	for name, want := range a.corpus {
		got, ok := b.corpus[name]
		if !ok {
			t.Errorf("%s missing corpus file %s", bName, name)
			continue
		}
		if got != want {
			t.Errorf("corpus file %s differs between %s and %s", name, aName, bName)
		}
	}
}

// tortureOptions is the shared campaign shape: floodset x flood-split
// produces genuine violations (corpus paths), sched-fuzz chains schedule
// bases across laps, benor is Monte-Carlo.
func tortureOptions() torture.Options {
	return torture.Options{
		Trials:           24,
		Seed:             7,
		Protocols:        []string{"floodset", "benor"},
		Adversaries:      []string{"flood-split", "sched-fuzz"},
		Shrink:           true,
		ShrinkMaxRuns:    60,
		DeterminismEvery: 3,
		Workers:          4,
	}
}

// TestDistributedCampaignByteIdentical is the tentpole's contract in one
// test: the same campaign run fully in-process and dispatched to three
// remote worker processes must produce a byte-identical report, log,
// corpus and journal.
func TestDistributedCampaignByteIdentical(t *testing.T) {
	local := runTortureCampaign(t, tortureOptions(), nil)

	ctx := context.Background()
	ex := StandardExecutors()
	p, addr := newTestPool(t, ex, PoolOptions{DegradeAfter: 30 * time.Second})
	for i := 0; i < 3; i++ {
		startWorker(t, ctx, addr, fmt.Sprintf("w%d", i), ex)
	}
	if err := p.AwaitWorkers(ctx, 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	dist := runTortureCampaign(t, tortureOptions(), TortureRemote(p))

	assertRunsIdentical(t, "in-process", "distributed", local, dist)
	s := p.Stats()
	if s.Dispatched == 0 || s.LocalRuns != 0 || s.Quarantined != 0 {
		t.Fatalf("campaign did not actually run remotely: %+v", s)
	}
}

// TestRedispatchDeathPrefixByteIdentical is the re-dispatch determinism
// property: for every prefix of a fixed schedule of worker deaths at
// trial boundaries, the interrupted distributed campaign must produce
// artifacts byte-identical to the uninterrupted in-process run.
func TestRedispatchDeathPrefixByteIdentical(t *testing.T) {
	opts := torture.Options{
		Trials:      18,
		Seed:        11,
		Protocols:   []string{"floodset"},
		Adversaries: []string{"flood-split", "sched-fuzz"},
		Workers:     2,
	}
	local := runTortureCampaign(t, opts, nil)

	deathOrdinals := []int{2, 5, 9} // jobs the dying worker drops mid-flight
	for k := 1; k <= len(deathOrdinals); k++ {
		k := k
		t.Run(fmt.Sprintf("deaths=%d", k), func(t *testing.T) {
			ctx := context.Background()
			ex := StandardExecutors()
			p, addr := newTestPool(t, ex, PoolOptions{DegradeAfter: 30 * time.Second})
			// One worker dies (and reconnects) at each ordinal in the
			// prefix; a steady worker keeps the fleet alive throughout.
			deaths := make(map[int]bool, k)
			for _, d := range deathOrdinals[:k] {
				deaths[d] = true
			}
			rawWorker(t, addr, ex, func(ordinal int, payload []byte) bool {
				return deaths[ordinal]
			})
			startWorker(t, ctx, addr, "steady", ex)
			if err := p.AwaitWorkers(ctx, 2, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			dist := runTortureCampaign(t, opts, TortureRemote(p))
			assertRunsIdentical(t, "in-process", fmt.Sprintf("%d-death run", k), local, dist)
			if dist.report.Quarantined != nil {
				t.Fatalf("boundary deaths must re-dispatch, not quarantine: %v", dist.report.Quarantined)
			}
		})
	}
}

// TestPoisonTrialQuarantineSurfaced drives the full poison path through a
// real campaign: a trial whose payload crashes every worker that touches
// it must be quarantined, executed in-process, surfaced in the report —
// and the campaign's artifacts must still match the in-process run.
func TestPoisonTrialQuarantineSurfaced(t *testing.T) {
	opts := torture.Options{
		Trials:      8,
		Seed:        11,
		Protocols:   []string{"floodset"},
		Adversaries: []string{"flood-split"},
		Workers:     1,
	}
	local := runTortureCampaign(t, opts, nil)

	ctx := context.Background()
	ex := StandardExecutors()
	p, addr := newTestPool(t, ex, PoolOptions{PoisonK: 2, DegradeAfter: 30 * time.Second})
	// Trial 3's serialized job is poison: every worker that receives it
	// dies. The torture.Job JSON leads with the trial index.
	rawWorker(t, addr, ex, func(ordinal int, payload []byte) bool {
		return bytes.Contains(payload, []byte(`{"trial":3,`))
	})
	if err := p.AwaitWorkers(ctx, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	dist := runTortureCampaign(t, opts, TortureRemote(p))

	if !reflect.DeepEqual(dist.report.Quarantined, []int{3}) {
		t.Fatalf("report.Quarantined = %v, want [3]", dist.report.Quarantined)
	}
	if s := p.Stats(); s.Quarantined != 1 {
		t.Fatalf("pool stats %+v", s)
	}
	// Quarantine must not perturb any artifact: strip the report's
	// quarantine field (the one deliberate difference) and compare.
	dist.report.Quarantined = nil
	dist.remarshalReport(t)
	assertRunsIdentical(t, "in-process", "poisoned run", local, dist)
}

// TestTelemetryCampaignByteIdentical is the telemetry plane's contract:
// a fully instrumented distributed campaign — coordinator registry,
// observed journal, worker snapshots piggybacked on heartbeats, and a
// live /statusz server polled afterwards — produces a report, log, corpus
// and journal byte-identical to a plain in-process run.
func TestTelemetryCampaignByteIdentical(t *testing.T) {
	plain := runTortureCampaign(t, tortureOptions(), nil)

	ctx := context.Background()
	ex := StandardExecutors()
	reg := telemetry.NewRegistry()
	p, addr := newTestPool(t, ex, PoolOptions{
		Heartbeat: 20 * time.Millisecond, DegradeAfter: 30 * time.Second, Telemetry: reg,
	})
	for i := 0; i < 2; i++ {
		startTelemetryWorker(t, ctx, addr, fmt.Sprintf("tw%d", i), ex, telemetry.NewRegistry())
	}
	if err := p.AwaitWorkers(ctx, 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, bound, err := telemetry.StartServer("127.0.0.1:0", telemetry.ServerOptions{
		Status: func() *telemetry.Statusz {
			s := telemetry.BaseStatusz("torture", time.Now())
			s.Workers = p.WorkerStatuses()
			s.Metrics = reg.Snapshot()
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	o := tortureOptions()
	o.Telemetry = reg
	obs := runTortureCampaign(t, o, TortureRemote(p), journal.Observe(reg))
	assertRunsIdentical(t, "plain", "telemetry-on", plain, obs)

	// /statusz carries the coordinator catalog in its metrics and both
	// workers alive in the table, each row with its piggybacked snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + bound + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var st telemetry.Statusz
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("/statusz does not decode: %v", derr)
		}
		if st.Schema != telemetry.StatuszSchema {
			t.Fatalf("statusz schema %q", st.Schema)
		}
		if got := st.Metrics.Value("omicon_torture_trials_total"); got != 24 {
			t.Fatalf("coordinator metrics omicon_torture_trials_total = %v, want 24", got)
		}
		ready := len(st.Workers) == 2
		for _, w := range st.Workers {
			ready = ready && w.Alive && w.Metrics != nil && findCounter(w.Metrics, "omicon_worker_jobs_total") >= 0
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/statusz never showed both workers alive with omicon_worker_jobs_total: %+v", st.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestThm1DistributedIdentical pins the sweep path: Theorem-1 samples
// computed remotely must equal the in-process sweep exactly.
func TestThm1DistributedIdentical(t *testing.T) {
	sizes := []int{33}
	localCells, err := experiments.Thm1Detailed(sizes, 1, 1, experiments.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ex := StandardExecutors()
	p, addr := newTestPool(t, ex, PoolOptions{DegradeAfter: 30 * time.Second})
	startWorker(t, ctx, addr, "sweeper", ex)
	if err := p.AwaitWorkers(ctx, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	distCells, err := experiments.Thm1Detailed(sizes, 1, 1, experiments.Exec{Workers: 2, RemoteThm1: Thm1Remote(p)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localCells, distCells) {
		t.Fatalf("sweep cells diverge:\nlocal %+v\nremote %+v", localCells, distCells)
	}
	if s := p.Stats(); s.Dispatched == 0 {
		t.Fatalf("sweep did not dispatch remotely: %+v", s)
	}
}
