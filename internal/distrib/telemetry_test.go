package distrib

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"omicon/internal/telemetry"
)

// startTelemetryWorker is startWorker plus a worker-local registry whose
// snapshot the worker piggybacks on heartbeats.
func startTelemetryWorker(t *testing.T, ctx context.Context, addr, name string, ex *Executors, reg *telemetry.Registry) (cancel func()) {
	t.Helper()
	wctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, addr, ex, WorkerOptions{
			Name: name, RetryMax: 200, RetryBase: time.Millisecond,
			RetryCap: 20 * time.Millisecond, Telemetry: reg,
		})
	}()
	t.Cleanup(func() {
		stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("telemetry worker did not shut down")
		}
	})
	return stop
}

// findCounter extracts a counter value from a snapshot, -1 if absent.
func findCounter(snap *telemetry.Snapshot, name string) float64 {
	for _, f := range snap.Families {
		if f.Name == name && len(f.Series) > 0 {
			return f.Series[0].Value
		}
	}
	return -1
}

func TestWorkerSnapshotPiggybackedOnHeartbeat(t *testing.T) {
	ctx := context.Background()
	ex := echoExecutors()
	creg := telemetry.NewRegistry()
	p, addr := newTestPool(t, ex, PoolOptions{
		Heartbeat: 10 * time.Millisecond, DegradeAfter: 10 * time.Second, Telemetry: creg,
	})
	wreg := telemetry.NewRegistry()
	startTelemetryWorker(t, ctx, addr, "instrumented", ex, wreg)
	if err := p.AwaitWorkers(ctx, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx, "job-1", "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// The next beats carry a snapshot with the executed job counted.
	deadline := time.Now().Add(5 * time.Second)
	var snap *telemetry.Snapshot
	for time.Now().Before(deadline) {
		ws := p.Workers()
		if len(ws) == 1 && len(ws[0].Stats) > 0 {
			var s telemetry.Snapshot
			if err := json.Unmarshal(ws[0].Stats, &s); err != nil {
				t.Fatalf("piggybacked stats are not a JSON snapshot: %v", err)
			}
			if findCounter(&s, "omicon_worker_jobs_total") >= 1 {
				snap = &s
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap == nil {
		t.Fatal("no heartbeat carried a snapshot counting the executed job")
	}

	// WorkerStatuses decodes the same snapshot into the /statusz row.
	sts := p.WorkerStatuses()
	if len(sts) != 1 || sts[0].Name != "instrumented" || !sts[0].Alive || sts[0].Metrics == nil || sts[0].Beats < 1 {
		t.Fatalf("worker statuses = %+v", sts)
	}
	if findCounter(sts[0].Metrics, "omicon_worker_jobs_total") < 1 {
		t.Fatalf("status row metrics = %+v", sts[0].Metrics)
	}
	if sts[0].JobsDone != 1 || sts[0].InFlight != "" {
		t.Fatalf("status row bookkeeping = %+v", sts[0])
	}

	// Coordinator-side dispatch metrics counted the traffic.
	csnap := creg.Snapshot()
	if got := findCounter(csnap, "omicon_distrib_dispatches_total"); got != 1 {
		t.Fatalf("dispatches counter = %v, want 1", got)
	}
	if got := findCounter(csnap, "omicon_distrib_worker_joins_total"); got < 1 {
		t.Fatalf("joins counter = %v, want >= 1", got)
	}
	if got := findCounter(csnap, "omicon_distrib_heartbeats_total"); got < 1 {
		t.Fatalf("heartbeats counter = %v, want >= 1", got)
	}
	if got := findCounter(csnap, "omicon_distrib_workers_alive"); got != 1 {
		t.Fatalf("workers_alive gauge = %v, want 1", got)
	}
}

func TestStaleSnapshotRetainedOnWorkerDeath(t *testing.T) {
	ctx := context.Background()
	ex := echoExecutors()
	p, addr := newTestPool(t, ex, PoolOptions{
		Heartbeat: 10 * time.Millisecond, DegradeAfter: 10 * time.Second,
	})
	wreg := telemetry.NewRegistry()
	wreg.Counter("omicon_worker_custom_total", "marker").Add(7)
	cancel := startTelemetryWorker(t, ctx, addr, "doomed", ex, wreg)

	// Wait until at least one beat delivered the snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := p.Workers()
		if len(ws) == 1 && len(ws[0].Stats) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never delivered a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel() // worker exits; the pool sees the connection drop
	waitStats(t, p, "the worker's death", func(s PoolStats) bool { return s.WorkerDeaths >= 1 })

	// The dead worker's last snapshot stays on /statusz, marked stale.
	ws := p.Workers()
	if len(ws) != 1 || !ws[0].Stale || ws[0].Alive {
		t.Fatalf("workers after death = %+v", ws)
	}
	if len(ws[0].Stats) == 0 {
		t.Fatal("stale worker lost its last snapshot")
	}
	sts := p.WorkerStatuses()
	if len(sts) != 1 || !sts[0].Stale || sts[0].Metrics == nil {
		t.Fatalf("stale status row = %+v", sts)
	}
	if findCounter(sts[0].Metrics, "omicon_worker_custom_total") != 7 {
		t.Fatalf("stale snapshot content = %+v", sts[0].Metrics)
	}
}
