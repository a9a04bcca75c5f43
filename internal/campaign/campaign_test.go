package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omicon/internal/journal"
)

// toy is a complete campaign in a few dozen lines — the shape a new driver
// takes: job i squares i, the record carries the square, fold keeps a log
// line per job and a running sum. hook, when set, runs inside fold and may
// fail it or cancel the context.
type toyRecord struct {
	V  int `json:"v"`
	I  int `json:"i"`
	Sq int `json:"sq"`
}

type toy struct {
	log      []string
	sum      int
	executed []bool
	hook     func(i int) error
}

func toyKey(i int) string { return journal.Key("toy/v1", i) }

func (t *toy) campaign(ctx context.Context, j *journal.Journal, workers, n int) *Campaign[int, toyRecord] {
	t.executed = make([]bool, n)
	return &Campaign[int, toyRecord]{
		Name: "toy", Ctx: ctx, Workers: workers, Journal: j, Version: 1,
		Key: toyKey,
		Produce: func(_ context.Context, i int) (int, error) {
			t.executed[i] = true // distinct element per job: no race
			return i * i, nil
		},
		Record: func(i, sq int) (toyRecord, error) { return toyRecord{V: 1, I: i, Sq: sq}, nil },
		Fold: func(i int, rec toyRecord, replayed bool) error {
			if t.hook != nil {
				if err := t.hook(i); err != nil {
					return err
				}
			}
			t.log = append(t.log, fmt.Sprintf("%d:%d:%v", rec.I, rec.Sq, replayed))
			t.sum += rec.Sq
			return nil
		},
	}
}

func openJournal(t *testing.T, path string) *journal.Journal {
	t.Helper()
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// journaledKeys reads the journal file as a later process would: only
// what was synced counts.
func journaledKeys(t *testing.T, path string, n int) []bool {
	t.Helper()
	live, _, err := journal.Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	has := make([]bool, n)
	for i := range has {
		_, has[i] = live[toyKey(i)]
	}
	return has
}

func prefix(k, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < k; i++ {
		out[i] = true
	}
	return out
}

func TestWorkersGiveIdenticalFoldSequence(t *testing.T) {
	const n = 40
	var want []string
	for _, workers := range []int{1, 8} {
		for _, journaled := range []bool{false, true} {
			var j *journal.Journal
			if journaled {
				j = openJournal(t, filepath.Join(t.TempDir(), "toy.wal"))
			}
			var ty toy
			c := ty.campaign(nil, j, workers, n)
			if err := c.Run(n); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = ty.log
			}
			if !reflect.DeepEqual(ty.log, want) || len(ty.log) != n {
				t.Fatalf("workers=%d journaled=%v: fold sequence %v, want %v", workers, journaled, ty.log, want)
			}
		}
	}
}

// endable is a context the test ends at an exact job, with either error.
// The interrupted runs are serial, so the plain field is race-free.
type endable struct {
	context.Context
	err error
}

func (c *endable) Err() error { return c.err }

// TestInterruptThenResume covers both context errors: the run stops at job
// k with the error wrapped and the prefix committed and durable, and the
// resumed run replays exactly that prefix, executes only the rest, and
// ends in the state of an uninterrupted run.
func TestInterruptThenResume(t *testing.T) {
	const n, k = 20, 6
	var clean toy
	if err := clean.campaign(nil, nil, 1, n).Run(n); err != nil {
		t.Fatal(err)
	}
	for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(want.Error(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "toy.wal")
			j := openJournal(t, path)
			ctx := &endable{Context: context.Background()}
			first := toy{hook: func(i int) error {
				if i == k-1 { // the context ends while job k-1 folds
					ctx.err = want
				}
				return nil
			}}
			err := first.campaign(ctx, j, 1, n).Run(n)
			if !errors.Is(err, want) || !Interrupted(err) || !strings.HasPrefix(err.Error(), "toy: interrupted: ") {
				t.Fatalf("Run error = %v, want wrapped %v", err, want)
			}
			if len(first.log) != k {
				t.Fatalf("folded %d jobs before the interrupt, want %d", len(first.log), k)
			}
			if got := journaledKeys(t, path, n); !reflect.DeepEqual(got, prefix(k, n)) {
				t.Fatalf("durable records %v, want exactly the first %d", got, k)
			}
			j.Close()

			var resumed toy
			c := resumed.campaign(nil, openJournal(t, path), 8, n)
			if err := c.Run(n); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			for i, line := range resumed.log {
				if want := fmt.Sprintf("%d:%d:%v", i, i*i, i < k); line != want {
					t.Fatalf("resumed fold %d = %q, want %q", i, line, want)
				}
				if resumed.executed[i] == (i < k) {
					t.Fatalf("job %d: executed=%v with journaled=%v", i, resumed.executed[i], i < k)
				}
			}
			if resumed.sum != clean.sum || len(resumed.log) != len(clean.log) {
				t.Fatalf("resumed state (%d jobs, sum %d) differs from the uninterrupted run (%d, %d)",
					len(resumed.log), resumed.sum, len(clean.log), clean.sum)
			}
		})
	}
}

// TestFoldErrorLeavesNoRecord: the append of job i happens only after its
// fold succeeded, and the prefix before a failure is synced (k is below
// journal.DefaultSyncEvery, so only the kernel's sync can have flushed it).
func TestFoldErrorLeavesNoRecord(t *testing.T) {
	const n, k = 12, 5
	boom := errors.New("artifact write failed")
	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "toy.wal")
		ty := toy{hook: func(i int) error {
			if i == k {
				return boom
			}
			return nil
		}}
		err := ty.campaign(nil, openJournal(t, path), workers, n).Run(n)
		if !errors.Is(err, boom) || Interrupted(err) {
			t.Fatalf("workers=%d: Run error = %v, want the fold error", workers, err)
		}
		if got := journaledKeys(t, path, n); !reflect.DeepEqual(got, prefix(k, n)) {
			t.Fatalf("workers=%d: durable records %v, want exactly the first %d", workers, got, k)
		}
	}
}

// TestBadRecordIsAnError: a journaled record that does not decode, or is
// newer than this build, is reported with its key and version — never
// treated as a miss and silently re-run — before any job of the batch runs.
func TestBadRecordIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload any
		want    string
	}{
		{"undecodable", map[string]any{"v": 1, "i": 3, "sq": "nine"}, "(version 1)"},
		{"undecodable version", map[string]any{"v": "one"}, "journal record " + toyKey(3)},
		{"newer version", toyRecord{V: 2, I: 3, Sq: 9}, "has version 2, this build understands <= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := openJournal(t, filepath.Join(t.TempDir(), "toy.wal"))
			if err := j.Append(toyKey(3), tc.payload); err != nil {
				t.Fatal(err)
			}
			var ty toy
			err := ty.campaign(nil, j, 1, 8).Run(8)
			if err == nil || !strings.Contains(err.Error(), toyKey(3)) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want one naming record %s and %q", err, toyKey(3), tc.want)
			}
			if len(ty.log) != 0 || ty.executed[0] {
				t.Fatalf("jobs ran despite the bad record: folded %v", ty.log)
			}
		})
	}
}

func TestGuard(t *testing.T) {
	type cfg struct {
		Seed uint64 `json:"seed"`
	}
	j := openJournal(t, filepath.Join(t.TempDir(), "toy.wal"))
	c := &Campaign[int, toyRecord]{Name: "toy", Journal: j}
	if err := c.Guard("toy-campaign/v1", cfg{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Guard("toy-campaign/v1", cfg{Seed: 3}); err != nil {
		t.Fatalf("matching config refused: %v", err)
	}
	if err := c.Guard("toy-campaign/v1", cfg{Seed: 4}); err == nil || !strings.Contains(err.Error(), `{"seed":3}`) {
		t.Fatalf("different config accepted or unnamed: %v", err)
	}
	if err := (&Campaign[int, toyRecord]{}).Guard("k", cfg{}); err != nil {
		t.Fatalf("Guard without a journal: %v", err)
	}
}
