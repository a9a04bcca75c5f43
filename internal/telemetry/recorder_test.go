package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"omicon/internal/trace"
)

func TestRecorderRingBoundAndOrder(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 40; i++ {
		rec.Mark("note")
	}
	got := rec.Entries()
	if len(got) != 16 {
		t.Fatalf("ring holds %d entries, want 16", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("entries out of order at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	if got[len(got)-1].Seq != 40 {
		t.Fatalf("newest seq = %d, want 40", got[len(got)-1].Seq)
	}
}

func TestRecorderSampleRecordsDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("omicon_x_total", "")
	h := r.Histogram("omicon_h_seconds", "", []float64{1})
	rec := NewRecorder(64)
	rec.Sample(r) // baseline: records nothing
	if n := len(rec.Entries()); n != 0 {
		t.Fatalf("baseline sample recorded %d entries", n)
	}
	c.Add(3)
	h.Observe(0.5)
	rec.Sample(r)
	rec.Sample(r) // unchanged: records nothing more
	got := rec.Entries()
	if len(got) != 2 {
		t.Fatalf("got %d delta entries, want 2: %+v", len(got), got)
	}
	bySeries := map[string]Entry{}
	for _, e := range got {
		if e.Kind != "delta" {
			t.Fatalf("unexpected kind %q", e.Kind)
		}
		bySeries[e.Series] = e
	}
	if e := bySeries["omicon_x_total"]; e.Value != 3 || e.Delta != 3 {
		t.Fatalf("counter delta entry = %+v", e)
	}
	if e := bySeries["omicon_h_seconds_count"]; e.Value != 1 || e.Delta != 1 {
		t.Fatalf("histogram delta entry = %+v", e)
	}
}

// TestRecorderSampleBytesPinned pins the JSONL of flight-recorder delta
// entries (timestamps zeroed): the series keys and fields a -flightrec
// dump or /flightrecz carries.
func TestRecorderSampleBytesPinned(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("omicon_torture_trials_total", "")
	g := r.Gauge("omicon_torture_trials_target", "")
	h := r.Histogram("omicon_torture_trial_seconds", "", []float64{1})
	rec := NewRecorder(16)
	rec.Sample(r)
	c.Add(3)
	g.Set(48)
	h.Observe(0.5)
	rec.Sample(r)
	c.Add(2)
	rec.Sample(r)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, e := range rec.Entries() {
		e.TimeMillis = 0
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	const want = `{"seq":1,"timeMillis":0,"kind":"delta","series":"omicon_torture_trial_seconds_count","value":1,"delta":1}
{"seq":2,"timeMillis":0,"kind":"delta","series":"omicon_torture_trials_target","value":48,"delta":48}
{"seq":3,"timeMillis":0,"kind":"delta","series":"omicon_torture_trials_total","value":3,"delta":3}
{"seq":4,"timeMillis":0,"kind":"delta","series":"omicon_torture_trials_total","value":5,"delta":2}
`
	if b.String() != want {
		t.Fatalf("delta entries moved:\ngot\n%swant\n%s", b.String(), want)
	}
}

func TestRecorderIsTraceSink(t *testing.T) {
	var sink trace.Sink = NewRecorder(16)
	sink.Emit(trace.Event{Kind: "round-start", Round: 7})
	rec := sink.(*Recorder)
	got := rec.Entries()
	if len(got) != 1 || got[0].Kind != "trace" || got[0].Event.Round != 7 {
		t.Fatalf("trace entry = %+v", got)
	}
}

func TestRecorderDumpFileParses(t *testing.T) {
	rec := NewRecorder(16)
	rec.Mark("start")
	rec.Emit(trace.Event{Kind: "decide", Value: 1})
	path := filepath.Join(t.TempDir(), "flightrec.jsonl")
	if err := rec.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("dump has %d lines, want 2", lines)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.Mark("x")
	rec.Emit(trace.Event{})
	rec.Sample(NewRegistry())
	stop := rec.Start(NewRegistry(), time.Millisecond)
	stop()
	if err := rec.DumpFile(filepath.Join(t.TempDir(), "nil.jsonl")); err != nil {
		t.Fatal(err)
	}
	if rec.Entries() != nil {
		t.Fatal("nil recorder returned entries")
	}
}

func TestInstallSIGQUITDumpsRing(t *testing.T) {
	rec := NewRecorder(16)
	rec.Mark("before")
	path := filepath.Join(t.TempDir(), "flightrec.jsonl")
	stop := InstallSIGQUIT(rec, path)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), `"SIGQUIT"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder dump not written (err=%v, data=%q)", err, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatusServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("omicon_srv_total", "served").Add(5)
	rec := NewRecorder(16)
	rec.Mark("boot")
	started := time.Now()
	srv, addr, err := StartServer("127.0.0.1:0", ServerOptions{
		Recorder: rec,
		Status: func() *Statusz {
			s := BaseStatusz("telemetry-test", started)
			s.Campaign = &CampaignStatus{Kind: "test", TrialsTotal: 10, TrialsDone: 5}
			s.Campaign.FillRate(2 * time.Second)
			s.Metrics = r.Snapshot()
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string, want int) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		return string(body)
	}

	var status Statusz
	if err := json.Unmarshal([]byte(get("/statusz", http.StatusOK)), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if status.Schema != StatuszSchema || status.Program != "telemetry-test" {
		t.Fatalf("statusz identity = %+v", status)
	}
	if status.Campaign.RatePerSecond != 2.5 || status.Campaign.EtaSeconds != 2 {
		t.Fatalf("rate/eta = %v/%v, want 2.5/2", status.Campaign.RatePerSecond, status.Campaign.EtaSeconds)
	}
	if got := status.Metrics.Value("omicon_srv_total"); got != 5 {
		t.Fatalf("/statusz metrics omicon_srv_total = %v, want 5", got)
	}

	flight := get("/flightrecz", http.StatusOK)
	if !strings.Contains(flight, `"boot"`) {
		t.Fatalf("/flightrecz missing mark:\n%s", flight)
	}

	if body := get("/debug/pprof/cmdline", http.StatusOK); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	get("/metrics", http.StatusNotFound)
}

// TestStartPlaneWithoutReadersStartsNoSampler: with neither a status
// address nor a flight-recorder path nothing could read the ring, so the
// plane builds no recorder and starts no sampler or handler.
func TestStartPlaneWithoutReadersStartsNoSampler(t *testing.T) {
	p, err := StartPlane(PlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Reg == nil {
		t.Fatal("plane has no registry")
	}
	if p.Rec != nil || len(p.stops) != 0 || p.srv != nil {
		t.Fatalf("plane without readers started rec=%v stops=%d srv=%v", p.Rec, len(p.stops), p.srv)
	}
	p, err = StartPlane(PlaneOptions{FlightRec: filepath.Join(t.TempDir(), "flightrec.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Rec == nil || len(p.stops) != 2 {
		t.Fatalf("plane with -flightrec: rec=%v stops=%d, want a recorder, its sampler and the SIGQUIT handler", p.Rec, len(p.stops))
	}
}
