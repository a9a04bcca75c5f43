package transport

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"omicon/internal/codec"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
	"omicon/internal/telemetry"
	"omicon/internal/trace"
)

// runNetworkedOpts is runNetworked with coordinator options.
func runNetworkedOpts(t *testing.T, n, tf int, inputs []int, proto sim.Protocol, opts Options) *CoordinatorResult {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	coord := NewCoordinator(n, tf, nil, 0)
	coord.SetOptions(opts)
	resCh := make(chan *CoordinatorResult, 1)
	errCh := make(chan error, n+1)
	go func() {
		res, err := coord.Serve(ln)
		if err != nil {
			errCh <- err
		}
		resCh <- res
	}()

	reg := codec.FullRegistry()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, err := Dial(ln.Addr().String(), id, n, tf, reg, 42)
			if err != nil {
				errCh <- err
				return
			}
			defer node.Close()
			if _, err := node.RunProtocol(proto, inputs[id]); err != nil {
				errCh <- err
			}
		}(id)
	}
	wg.Wait()
	res := <-resCh
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	return res
}

// TestTracedCoordinatorReconciles checks that a traced networked run emits
// a self-consistent event stream whose exec-end matches the coordinator's
// final snapshot.
func TestTracedCoordinatorReconciles(t *testing.T) {
	capture := &trace.Capture{}
	n, tf := 4, 0
	res := runNetworkedOpts(t, n, tf, mixed(n, 3),
		func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) },
		Options{Trace: trace.New(capture)})

	sums, err := trace.Verify(capture.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("got %d segments, want 1", len(sums))
	}
	if sums[0].Final != res.Metrics {
		t.Fatalf("exec-end snapshot %+v != coordinator metrics %+v", sums[0].Final, res.Metrics)
	}
	if int64(sums[0].Rounds) != res.Metrics.Rounds {
		t.Fatalf("trace has %d round-end events for %d rounds", sums[0].Rounds, res.Metrics.Rounds)
	}
	decides := 0
	for _, e := range capture.Events() {
		if e.Kind == trace.KindDecide {
			decides++
		}
	}
	if decides != n {
		t.Fatalf("got %d decide events, want %d", decides, n)
	}
}

// TestDebugServerEndpoints exercises /statusz and /debug/pprof directly.
func TestDebugServerEndpoints(t *testing.T) {
	coord := NewCoordinator(4, 1, nil, 0)
	coord.counters.AddRounds(3)
	coord.counters.AddMessage(128)
	coord.liveRound.Store(3)
	coord.liveActive.Store(4)

	srv, addr, err := coord.startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var status telemetry.Statusz
	if err := json.Unmarshal(get("/statusz", http.StatusOK), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if status.Schema != telemetry.StatuszSchema || status.Metrics == nil {
		t.Fatalf("/statusz = %+v", status)
	}
	values := map[string]float64{}
	for _, f := range status.Metrics.Families {
		values[f.Name] = status.Metrics.Value(f.Name)
	}
	for name, want := range map[string]float64{
		"omicon_rounds_total":    3,
		"omicon_messages_total":  1,
		"omicon_comm_bits_total": 128,
		"omicon_crashes_total":   0,
		"omicon_retries_total":   0,
		"omicon_live_round":      3,
		"omicon_live_active":     4,
		"omicon_live_corrupted":  0,
	} {
		if got, ok := values[name]; !ok || got != want {
			t.Fatalf("/statusz metrics %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	get("/debug/pprof/cmdline", http.StatusOK)
	get("/metrics", http.StatusNotFound)
}

// TestDebugAddrWiring checks Options.DebugAddr: Serve binds it, exposes the
// resolved address, and fails fast on an unbindable one.
func TestDebugAddrWiring(t *testing.T) {
	coord := NewCoordinator(2, 0, nil, 0)
	coord.SetOptions(Options{DebugAddr: "127.0.0.1:999999"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := coord.Serve(ln); err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("want debug listener error, got %v", err)
	}
	if coord.DebugListenAddr() != "" {
		t.Fatal("failed bind must not publish an address")
	}
}
