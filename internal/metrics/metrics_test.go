package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestAccumulation(t *testing.T) {
	var c Counters
	c.AddRounds(3)
	c.AddMessage(16)
	c.AddMessage(8)
	c.AddRandom(1)
	c.AddRandom(5)
	s := c.Snapshot()
	want := Snapshot{Rounds: 3, Messages: 2, CommBits: 24, RandomBits: 6, RandomCalls: 2}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddMessage(1)
				c.AddRandom(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Messages != 8000 || s.CommBits != 8000 || s.RandomCalls != 8000 || s.RandomBits != 16000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Rounds: 1, Messages: 2, CommBits: 3, RandomBits: 4, RandomCalls: 5, Crashes: 6, Retries: 7}
	b := Snapshot{Rounds: 10, Messages: 20, CommBits: 30, RandomBits: 40, RandomCalls: 50, Crashes: 60, Retries: 70}
	got := a.Add(b)
	want := Snapshot{Rounds: 11, Messages: 22, CommBits: 33, RandomBits: 44, RandomCalls: 55, Crashes: 66, Retries: 77}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestCrashRetryCounters(t *testing.T) {
	var c Counters
	c.AddCrash()
	c.AddRetry()
	c.AddRetry()
	s := c.Snapshot()
	if s.Crashes != 1 || s.Retries != 2 {
		t.Fatalf("crashes=%d retries=%d, want 1/2", s.Crashes, s.Retries)
	}
	if !strings.Contains(s.String(), "crashes=1") || !strings.Contains(s.String(), "retries=2") {
		t.Fatalf("String() = %q", s.String())
	}
	if strings.Contains(Snapshot{Rounds: 1}.String(), "crashes") {
		t.Fatalf("fault-free String() must omit crash counters: %q", Snapshot{Rounds: 1}.String())
	}
}

func TestString(t *testing.T) {
	s := Snapshot{Rounds: 7}
	if !strings.Contains(s.String(), "rounds=7") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestRoundsAccessor(t *testing.T) {
	var c Counters
	c.AddRounds(1)
	c.AddRounds(1)
	if c.Rounds() != 2 {
		t.Fatalf("Rounds() = %d", c.Rounds())
	}
}

func TestSnapshotCheck(t *testing.T) {
	ok := Snapshot{Rounds: 3, Messages: 10, CommBits: 80, RandomBits: 5, RandomCalls: 5}
	if err := ok.Check(); err != nil {
		t.Fatal(err)
	}
	cases := []Snapshot{
		{Rounds: -1},
		{RandomCalls: 3, RandomBits: 2},
		{Messages: 4, CommBits: 0},
	}
	for i, s := range cases {
		if err := s.Check(); err == nil {
			t.Fatalf("case %d: Check() accepted inconsistent snapshot %+v", i, s)
		}
	}
}

func TestDeltaAddIsZero(t *testing.T) {
	a := Delta{Messages: 1, CommBits: 2}
	b := Delta{CommBits: 3, Drops: 4}
	if got := a.Add(b); got != (Delta{Messages: 1, CommBits: 5, Drops: 4}) {
		t.Fatalf("Add = %+v", got)
	}
	if !(Delta{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

// TestSnapshotQuiesced pins the documented contract of Counters.Snapshot:
// once every updating goroutine has returned and the reader has
// synchronized with them, the snapshot is exact (and the concurrent calls
// made while they ran were race-free, which the race detector checks).
func TestSnapshotQuiesced(t *testing.T) {
	var c Counters
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent monitoring reads are race-free (may be torn)
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.AddRounds(1)
				c.AddMessage(8)
				c.AddRandom(2)
				c.AddCrash()
				c.AddRetry()
			}
		}()
	}
	wg.Wait() // quiesce: happens-before edge from every worker
	close(stop)
	want := Snapshot{
		Rounds: workers * each, Messages: workers * each,
		CommBits: 8 * workers * each, RandomBits: 2 * workers * each,
		RandomCalls: workers * each, Crashes: workers * each, Retries: workers * each,
	}
	if got := c.Snapshot(); got != want {
		t.Fatalf("quiesced snapshot %+v, want %+v", got, want)
	}
}

func TestEnvelopeCrashRetryBounds(t *testing.T) {
	e := Envelope{MaxCrashes: 2, MaxRetries: 3}
	if err := e.Check(Snapshot{Crashes: 2, Retries: 3}); err != nil {
		t.Fatalf("at-bound snapshot must pass: %v", err)
	}
	if err := e.Check(Snapshot{Crashes: 3}); err == nil || !strings.Contains(err.Error(), "crashes") {
		t.Fatalf("crashes over envelope must fail naming the counter: %v", err)
	}
	if err := e.Check(Snapshot{Retries: 4}); err == nil || !strings.Contains(err.Error(), "retries") {
		t.Fatalf("retries over envelope must fail naming the counter: %v", err)
	}
	if err := (Envelope{}).Check(Snapshot{Crashes: 1 << 30, Retries: 1 << 30}); err != nil {
		t.Fatalf("zero envelope leaves crashes/retries unbounded: %v", err)
	}
}

func TestVerboseString(t *testing.T) {
	s := Snapshot{Rounds: 1, Messages: 2, CommBits: 3, RandomBits: 4, RandomCalls: 4}
	if str := s.String(); strings.Contains(str, "crashes") {
		t.Fatalf("String() must omit zero crashes: %q", str)
	}
	v := s.Verbose()
	if !strings.Contains(v, "crashes=0") || !strings.Contains(v, "retries=0") {
		t.Fatalf("Verbose() must always include crashes/retries: %q", v)
	}
	s.Crashes = 2
	if !strings.Contains(s.String(), "crashes=2") {
		t.Fatal("String() must include nonzero crashes")
	}
}

func TestEnvelopeCheck(t *testing.T) {
	e := Envelope{MaxRounds: 10, MaxCommBits: 100}
	if err := e.Check(Snapshot{Rounds: 10, CommBits: 100, RandomBits: 1 << 40}); err != nil {
		t.Fatalf("unbounded counters must pass: %v", err)
	}
	if err := e.Check(Snapshot{Rounds: 11}); err == nil {
		t.Fatal("rounds over envelope must fail")
	}
	if err := e.Check(Snapshot{CommBits: 101}); err == nil {
		t.Fatal("commBits over envelope must fail")
	}
	if err := (Envelope{}).Check(Snapshot{Rounds: 1 << 40}); err != nil {
		t.Fatalf("zero envelope is unbounded: %v", err)
	}
}
