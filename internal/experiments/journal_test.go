package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omicon/internal/journal"
)

// TestThm1DetailedJournalResume pins the sweep resume contract: a
// journaled run, and a rerun replaying that journal (even after a torn
// tail), both produce cells deep-equal to an unjournaled run.
func TestThm1DetailedJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sizes, seeds, base := []int{64}, 2, uint64(5)
	clean, err := Thm1Detailed(sizes, seeds, base, Exec{})
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "sweep.wal")
	j, _, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Thm1Detailed(sizes, seeds, base, Exec{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, first) {
		t.Fatal("journaled run diverged from unjournaled run")
	}

	// Tear the journal tail (a mid-append SIGKILL) and resume: lost
	// trials re-run, surviving ones replay, output identical.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, info, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.TailError == "" {
		t.Fatal("tear not detected")
	}
	resumed, err := Thm1Detailed(sizes, seeds, base, Exec{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("resumed run diverged from unjournaled run")
	}

	// A record that no longer decodes is an error naming it, not a miss
	// that silently re-runs the sample and journals a second record.
	bad := journal.Key("sweep-thm1/v1", 64, 2, "none", 0, base, 0)
	if !j2.Has(bad) {
		t.Fatalf("fixture drifted: no journaled sample under %s", bad)
	}
	if err := j2.Append(bad, map[string]string{"rounds": "many"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Thm1Detailed(sizes, seeds, base, Exec{Journal: j2}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("undecodable record: error = %v, want one naming %s", err, bad)
	}
}

// TestThm3SweepJournalResume does the same for the Theorem 3 sweep,
// whose journal payload is a metrics.Snapshot.
func TestThm3SweepJournalResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep3.wal")
	clean, err := Thm3Sweep(16, 0, []int{1, 4}, 3, 9, false, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Thm3Sweep(16, 0, []int{1, 4}, 3, 9, false, Exec{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() == 0 {
		t.Fatal("no journaled trials")
	}
	resumed, err := Thm3Sweep(16, 0, []int{1, 4}, 3, 9, false, Exec{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("resumed sweep diverged from clean run")
	}
}

// TestSweepCancelled: a pre-cancelled context stops the sweep before any
// live trial and surfaces context.Canceled.
func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Thm1Detailed([]int{64}, 1, 5, Exec{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := Thm3Sweep(16, 0, []int{1}, 1, 1, false, Exec{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
