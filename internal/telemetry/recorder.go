package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"omicon/internal/trace"
)

// Entry is one flight-recorder record. Kind is "delta" (a metric series
// changed between samples), "trace" (a structured trace event passed
// through the recorder sink) or "mark" (a lifecycle note such as
// SIGQUIT).
type Entry struct {
	Seq        uint64       `json:"seq"`
	TimeMillis int64        `json:"timeMillis"`
	Kind       string       `json:"kind"`
	Series     string       `json:"series,omitempty"`
	Value      float64      `json:"value,omitempty"`
	Delta      float64      `json:"delta,omitempty"`
	Event      *trace.Event `json:"event,omitempty"`
	Note       string       `json:"note,omitempty"`
}

// Recorder is the bounded in-memory flight recorder: a ring of recent
// telemetry deltas and trace events, dumped as JSONL on SIGQUIT or when
// the chaos watchdog fires. It implements trace.Sink so it can be teed
// behind an existing -trace sink via trace.MultiSink.
type Recorder struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	full    bool
	seq     uint64
	prev    map[string]float64
}

// NewRecorder returns a recorder retaining the most recent size entries
// (minimum 16).
func NewRecorder(size int) *Recorder {
	if size < 16 {
		size = 16
	}
	return &Recorder{entries: make([]Entry, size), prev: make(map[string]float64)}
}

func (rec *Recorder) push(e Entry) {
	rec.seq++
	e.Seq = rec.seq
	e.TimeMillis = time.Now().UnixMilli()
	rec.entries[rec.next] = e
	rec.next++
	if rec.next == len(rec.entries) {
		rec.next = 0
		rec.full = true
	}
}

// Emit records a trace event; it implements trace.Sink.
func (rec *Recorder) Emit(e trace.Event) {
	if rec == nil {
		return
	}
	ev := e
	rec.mu.Lock()
	rec.push(Entry{Kind: "trace", Event: &ev})
	rec.mu.Unlock()
}

// Mark records a lifecycle note (e.g. "SIGQUIT", "watchdog").
func (rec *Recorder) Mark(note string) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.push(Entry{Kind: "mark", Note: note})
	rec.mu.Unlock()
}

// Sample snapshots the registry and records one "delta" entry per series
// whose value changed since the previous Sample (histograms sample their
// _count). The first Sample establishes the baseline and records nothing.
func (rec *Recorder) Sample(reg *Registry) {
	if rec == nil || reg == nil {
		return
	}
	flat := flatten(reg.Snapshot())
	rec.mu.Lock()
	defer rec.mu.Unlock()
	first := len(rec.prev) == 0
	for _, kv := range flat {
		old, seen := rec.prev[kv.key]
		if !first && (!seen || kv.value != old) {
			rec.push(Entry{Kind: "delta", Series: kv.key, Value: kv.value, Delta: kv.value - old})
		}
		rec.prev[kv.key] = kv.value
	}
}

type flatKV struct {
	key   string
	value float64
}

// flatten reduces a snapshot to ordered series keys: counters and gauges
// by value under their name, histograms by observation count under
// name_count.
func flatten(s *Snapshot) []flatKV {
	var out []flatKV
	for _, f := range s.Families {
		v := f.Series[0]
		if f.Type == TypeHistogram {
			out = append(out, flatKV{f.Name + "_count", float64(v.Count)})
			continue
		}
		out = append(out, flatKV{f.Name, v.Value})
	}
	return out
}

// Start samples reg every interval until the returned stop function is
// called.
func (rec *Recorder) Start(reg *Registry, every time.Duration) (stop func()) {
	if rec == nil || reg == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				rec.Sample(reg)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Entries returns the retained entries, oldest first.
func (rec *Recorder) Entries() []Entry {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []Entry
	if rec.full {
		out = append(out, rec.entries[rec.next:]...)
	}
	out = append(out, rec.entries[:rec.next]...)
	return out
}

// WriteJSONL writes the retained entries as one JSON object per line.
func (rec *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range rec.Entries() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the ring to path (truncating any previous dump).
func (rec *Recorder) DumpFile(path string) error {
	if rec == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// InstallSIGQUIT dumps the flight recorder to path on every SIGQUIT.
// Registering a SIGQUIT handler suppresses the Go runtime's default
// stack-dump-and-exit, so the handler first writes all goroutine stacks
// to stderr itself — the chaos watchdog (docs/RESILIENCE.md) SIGQUITs a
// stalled child precisely to capture that dump, then SIGKILLs after a
// grace period; the handler therefore must not exit the process. The
// returned stop function uninstalls the handler.
func InstallSIGQUIT(rec *Recorder, path string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				os.Stderr.Write(buf[:n])
				rec.Mark("SIGQUIT")
				if err := rec.DumpFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "status: flight recorder dump failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "status: flight recorder dumped to %s\n", path)
				}
			}
		}
	}()
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}
