// Package campaign is the one kernel every seed-indexed campaign of the
// reproduction runs on — torture, the tournament and the Theorem-1 and
// Theorem-3 sweeps. The paper's guarantees are with-high-probability
// statements, so each is checked by thousands of independent jobs; what
// the drivers share is not the job but the policy around it, and that
// policy lives here, once: when a journaled record stands in for an
// execution, and in what order fold, artifact writes, journal append,
// sync and cancellation happen.
//
// A driver fills in a Campaign with four index-based callbacks and calls
// Run once per batch (a torture lap, one sweep cell, a whole tournament):
//
//	Key(i)             content-derived journal key of job i
//	Produce(ctx, i)    execute job i (pool goroutine, self-contained;
//	                   the driver's closure picks remote or in-process)
//	Record(i, live)    serial: live outcome -> durable record
//	Fold(i, rec, rep)  serial: fold a record into the driver's state and
//	                   write its artifacts
//
// and the kernel guarantees, at any worker count:
//
//   - a journaled job is never executed: its record is decoded before the
//     batch starts and Produce is skipped;
//   - live and replayed records go through the same Fold, in index order,
//     on the calling goroutine — which is what makes a resumed campaign's
//     artifacts byte-identical to an uninterrupted one's;
//   - the journal append of job i runs only after Fold(i) returned nil, so
//     a record always implies complete artifacts, and a kill between the
//     two re-runs the job, whose writes are idempotent;
//   - the smallest failing index wins with its prefix committed
//     (partrial.Do), the journal is synced best-effort on any error and
//     checked by Finish;
//   - a cancelled or expired context comes back wrapped (Interrupted), with
//     everything the driver already folded still valid;
//   - a journaled record that does not decode, or carries a schema version
//     newer than Version, is an error naming the record — never a miss.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"omicon/internal/journal"
	"omicon/internal/partrial"
	"omicon/internal/telemetry"
)

// Progress is the four series every campaign exports (docs/OBSERVABILITY.md
// names them per driver). The driver registers them; only the kernel moves
// them. Nil handles are no-ops, so a driver without telemetry, or without a
// per-job histogram, leaves the fields unset.
type Progress struct {
	Target  *telemetry.Gauge     // jobs announced through Expect
	Done    *telemetry.Counter   // jobs folded, live and replayed
	Resumed *telemetry.Counter   // jobs replayed from the journal
	Seconds *telemetry.Histogram // wall time of live Produce calls
}

// Campaign is one campaign's configuration and callbacks. L is what a live
// execution yields, R the durable record journaled and folded (for a sweep
// the two coincide). Set the fields, then call Guard (optional), Expect,
// Run once per batch and Finish. The callbacks take batch-local indices;
// between Run calls the driver may change Workers and whatever state its
// callbacks read.
type Campaign[L, R any] struct {
	// Name prefixes the kernel's errors ("torture: journal append: ...").
	Name string
	// Ctx cancels the campaign between jobs; nil runs to completion.
	Ctx context.Context
	// Workers sizes the partrial pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Journal, when set, records every folded job and replays journaled
	// ones. Key is only called with a journal attached.
	Journal *journal.Journal
	// Version is the newest record schema this build understands. A record
	// carries its version in a top-level "v" field (absent reads as 0).
	Version  int
	Progress Progress

	Key     func(i int) string
	Produce func(ctx context.Context, i int) (L, error)
	Record  func(i int, live L) (R, error)
	Fold    func(i int, rec R, replayed bool) error
}

// Interrupted reports whether err is a campaign cut short by its context:
// the driver's partial state is valid and a journaled campaign resumes.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Guard verifies (or establishes) the journal's configuration record: the
// option subset that changes job outcomes, compared byte-for-byte. Records
// are thereby only ever replayed into the identical campaign; resuming
// under different options is refused instead of silently blending two
// campaigns. Without a journal it does nothing.
func (c *Campaign[L, R]) Guard(key string, cfg any) error {
	if c.Journal == nil {
		return nil
	}
	want, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if have, ok := c.Journal.Lookup(key); ok {
		if !bytes.Equal(have, want) {
			return fmt.Errorf("%s: journal belongs to a different campaign (journaled config %s, current %s); use matching flags or a fresh journal", c.Name, have, want)
		}
		return nil
	}
	if err := c.Journal.Append(key, cfg); err != nil {
		return err
	}
	return c.Journal.Sync()
}

// Expect announces n more jobs on the target series.
func (c *Campaign[L, R]) Expect(n int) { c.Progress.Target.Add(float64(n)) }

// lookup decodes the journaled record under key, if there is one.
func (c *Campaign[L, R]) lookup(key string) (rec R, ok bool, err error) {
	raw, ok := c.Journal.Lookup(key)
	if !ok {
		return rec, false, nil
	}
	var head struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return rec, false, fmt.Errorf("%s: journal record %s: %w", c.Name, key, err)
	}
	if head.V > c.Version {
		return rec, false, fmt.Errorf("%s: journal record %s has version %d, this build understands <= %d", c.Name, key, head.V, c.Version)
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return rec, false, fmt.Errorf("%s: journal record %s (version %d): %w", c.Name, key, head.V, err)
	}
	return rec, true, nil
}

// Run executes one batch of n jobs under the guarantees in the package
// comment. An error for which Interrupted holds leaves the folded prefix
// valid; any other error is the smallest failing job's.
func (c *Campaign[L, R]) Run(n int) error {
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var keys []string
	recs, replayed := make([]R, n), make([]bool, n)
	if c.Journal != nil {
		keys = make([]string, n)
		for i := range keys {
			keys[i] = c.Key(i)
			var err error
			if recs[i], replayed[i], err = c.lookup(keys[i]); err != nil {
				return err
			}
		}
	}
	err := partrial.Do(n, c.Workers, func(i int) (live L, err error) {
		if replayed[i] {
			return live, nil
		}
		if err := ctx.Err(); err != nil {
			return live, err
		}
		start := time.Now()
		if live, err = c.Produce(ctx, i); err == nil {
			c.Progress.Seconds.Observe(time.Since(start).Seconds())
		}
		return live, err
	}, func(i int, live L) (err error) {
		rec := recs[i]
		if !replayed[i] {
			if rec, err = c.Record(i, live); err != nil {
				return err
			}
		}
		if err := c.Fold(i, rec, replayed[i]); err != nil {
			return err
		}
		c.Progress.Done.Inc()
		if replayed[i] {
			c.Progress.Resumed.Inc()
		} else if c.Journal != nil {
			if err := c.Journal.Append(keys[i], rec); err != nil {
				return fmt.Errorf("%s: journal append: %w", c.Name, err)
			}
		}
		return nil
	})
	if err == nil {
		return nil
	}
	if c.Journal != nil {
		c.Journal.Sync() // best effort: keep the folded prefix durable
	}
	if Interrupted(err) {
		return fmt.Errorf("%s: interrupted: %w", c.Name, err)
	}
	return err
}

// Finish makes the campaign durable: the checked counterpart of the
// best-effort sync Run performs on error.
func (c *Campaign[L, R]) Finish() error {
	if c.Journal == nil {
		return nil
	}
	if err := c.Journal.Sync(); err != nil {
		return fmt.Errorf("%s: journal sync: %w", c.Name, err)
	}
	return nil
}

// WriteFileAtomic writes data via temp file + fsync + rename, so a process
// killed mid-write can never leave a torn file at path — a half-written
// corpus entry, trace dump or report would otherwise poison -resume and
// replay, and a half-written address file would misdirect a worker. Every
// artifact a campaign leaves behind goes through it.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
