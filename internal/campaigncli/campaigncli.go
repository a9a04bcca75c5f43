// Package campaigncli is the process harness the campaign commands
// (cmd/torture, cmd/tournament, cmd/paper) share: one flag bundle and one
// session wiring workers, shards, journal, distributed dispatch, telemetry
// plane, trace sink and signal handling, so each command keeps only its own
// flags, its Options literal, its output and its exit-code mapping. It sits
// beside internal/campaign rather than in it because it imports
// internal/distrib, which imports the drivers, which import the kernel.
//
// Diagnostics keep the stderr prefixes byte-comparison tooling strips
// (docs/RESILIENCE.md): "journal:", "distrib:", "status:".
package campaigncli

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"omicon/internal/campaign"
	"omicon/internal/distrib"
	"omicon/internal/experiments"
	"omicon/internal/journal"
	"omicon/internal/telemetry"
	"omicon/internal/torture"
	"omicon/internal/trace"
)

// ExitInterrupted is the exit status of a campaign stopped by
// SIGINT/SIGTERM.
const ExitInterrupted = 130

// ExitCode maps an error to a process exit status: ExitInterrupted when it
// is a cancelled campaign, otherwise fallback.
func ExitCode(err error, fallback int) int {
	if campaign.Interrupted(err) {
		return ExitInterrupted
	}
	return fallback
}

// statusSeries names, per program, the /statusz campaign kind and the
// metric families (docs/OBSERVABILITY.md catalog) its progress block is
// read from; "" reads as zero. paper's block counts E1's Theorem-1
// samples.
var statusSeries = map[string]struct {
	kind, target, done, violations, failed, quarantined, resumed string
}{
	"torture": {"torture", "omicon_torture_trials_target", "omicon_torture_trials_total",
		"omicon_torture_violations_total", "omicon_torture_failed_trials_total",
		"omicon_torture_quarantined_total", "omicon_torture_resumed_total"},
	"tournament": {"tournament", "omicon_tournament_trials_target", "omicon_tournament_trials_total",
		"omicon_tournament_losses_total", "omicon_tournament_unexpected_losses_total",
		"", "omicon_tournament_resumed_total"},
	"paper": {"sweep-thm1", "omicon_sweep_samples_target", "omicon_sweep_samples_total",
		"", "", "", "omicon_sweep_resumed_total"},
}

// Session is one campaign command's harness: the flag bundle every such
// command takes and, once started, the running plane, journal, pool and
// trace sink. Workers and Shards are flag values; the other exported fields
// are set by Start. All of them go straight into the driver's Options;
// Journal and Trace stay nil without their flags.
type Session struct {
	Workers int
	Shards  int
	// Ctx is cancelled by SIGINT/SIGTERM: the driver stops between trials,
	// journal and artifacts flush, and the command exits ExitInterrupted.
	Ctx       context.Context
	Telemetry *telemetry.Registry
	Journal   *journal.Journal
	Trace     *trace.Tracer

	program, journal, listen, addrFile string
	statusAddr, flightRec, trace       string
	resume                             bool
	workersRemote                      int
	remoteWait                         time.Duration

	// Atomic because /statusz closures read them on server goroutines
	// before and after each exists.
	plane atomic.Pointer[telemetry.Plane]
	pool  atomic.Pointer[distrib.Pool]
	sink  *trace.JSONL
	stop  context.CancelFunc
}

// Register declares the shared flags on the default flag set for program
// ("torture", "tournament", "paper"); traced adds -trace for commands whose
// driver takes a tracer.
func Register(program string, traced bool) *Session {
	s := &Session{program: program}
	flag.IntVar(&s.Workers, "workers", 0, "parallel trial workers (0 = GOMAXPROCS, 1 = serial); artifacts are identical at any width")
	flag.IntVar(&s.Shards, "shards", 0, "simulator shards for every trial (0 = one, stepped on the calling goroutine; -1 = one worker per GOMAXPROCS; k = k shard workers); artifacts are identical at every count")
	flag.StringVar(&s.journal, "journal", "", "journal completed trials to this write-ahead file; a killed "+program+" resumes from it (docs/RESILIENCE.md)")
	flag.BoolVar(&s.resume, "resume", false, "allow continuing from a non-empty journal; replayed trials reproduce the original artifact bytes")
	flag.StringVar(&s.listen, "listen", "", "accept remote trial workers (cmd/worker) on this address and dispatch trials to them; artifacts stay byte-identical (docs/DISTRIBUTED.md)")
	flag.StringVar(&s.addrFile, "addr-file", "", "write the bound -listen address to this file for cmd/worker -connect-file")
	flag.IntVar(&s.workersRemote, "workers-remote", 1, "with -listen: minimum connected workers to wait for before starting")
	flag.DurationVar(&s.remoteWait, "remote-wait", 10*time.Second, "with -listen: how long to wait for -workers-remote workers before proceeding degraded (in-process)")
	flag.StringVar(&s.statusAddr, "status-addr", "", "serve /metrics, /statusz, /flightrecz and /debug/pprof on this address (docs/OBSERVABILITY.md)")
	flag.StringVar(&s.flightRec, "flightrec", "", "dump the flight-recorder ring to this JSONL file on SIGQUIT")
	if traced {
		flag.StringVar(&s.trace, "trace", "", "write every trial's JSONL event trace to this file")
	}
	return s
}

// Parse parses the command line and rejects stray arguments and flag
// combinations no session could honour.
func (s *Session) Parse() error {
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if s.addrFile != "" && s.listen == "" {
		return fmt.Errorf("-addr-file requires -listen")
	}
	return nil
}

// SplitNames parses a comma-separated name list flag; "" is nil.
func SplitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Start brings the harness up in the order failures should surface: the
// telemetry plane, the signal context, the journal (opened and validated
// before anything listens or waits, so a wrong -journal is reported at
// once), the worker pool, the trace sink. On error everything started is
// shut down again.
func (s *Session) Start() error {
	// The plane is strictly observational: artifacts are byte-identical
	// with or without it.
	plane, err := telemetry.StartPlane(telemetry.PlaneOptions{
		Program: s.program, Addr: s.statusAddr, FlightRec: s.flightRec, Log: os.Stderr,
		Campaign: s.campaignStatus,
		Workers: func() []telemetry.WorkerStatus {
			if p := s.pool.Load(); p != nil {
				return p.WorkerStatuses()
			}
			return nil
		},
		Fleet: func() []telemetry.Labeled {
			if p := s.pool.Load(); p != nil {
				return p.Fleet()
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	s.plane.Store(plane)
	s.Telemetry = plane.Reg
	s.Ctx, s.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if err := s.start(); err != nil {
		s.Close()
		return err
	}
	return nil
}

func (s *Session) start() error {
	if s.journal != "" {
		j, info, err := journal.Open(s.journal, journal.Observe(s.Telemetry))
		if err != nil {
			return err
		}
		s.Journal = j
		if j.Len() > 0 && !s.resume {
			return fmt.Errorf("journal %s already holds %d records; pass -resume to continue that %s or point -journal at a fresh file", s.journal, j.Len(), s.program)
		}
		if info.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, "journal: recovered %s: dropped %d torn tail bytes (%s); lost trials will re-run\n", s.journal, info.DroppedBytes, info.TailError)
		}
		if j.Len() > 0 {
			fmt.Fprintf(os.Stderr, "journal: resuming with %d journaled records\n", j.Len())
		}
	}
	if s.listen != "" {
		ln, err := net.Listen("tcp", s.listen)
		if err != nil {
			return err
		}
		if s.addrFile != "" {
			// Published atomically, so a worker re-reading the file never
			// observes a partial address.
			if err := campaign.WriteFileAtomic(s.addrFile, []byte(ln.Addr().String()+"\n")); err != nil {
				ln.Close()
				return err
			}
		}
		pool := distrib.NewPool(distrib.StandardExecutors(), distrib.PoolOptions{Log: os.Stderr, Telemetry: s.Telemetry})
		s.pool.Store(pool)
		go pool.Serve(ln)
		if err := pool.AwaitWorkers(s.Ctx, s.workersRemote, s.remoteWait); err != nil {
			if s.Ctx.Err() != nil {
				return fmt.Errorf("interrupted waiting for workers: %w", s.Ctx.Err())
			}
			fmt.Fprintf(os.Stderr, "distrib: %v; proceeding degraded (in-process execution until workers join)\n", err)
		}
	}
	if s.trace != "" {
		file, err := os.Create(s.trace)
		if err != nil {
			return err
		}
		s.sink = trace.NewJSONL(file)
		// Tee trial events into the flight recorder so a SIGQUIT dump
		// interleaves recent trace events with telemetry deltas.
		s.Trace = trace.New(trace.MultiSink(s.sink, s.plane.Load().Rec))
	}
	return nil
}

// TortureRemote is the Options.Remote hook of torture and the tournament:
// dispatch to the -listen pool, nil (in-process) without one.
func (s *Session) TortureRemote() func(context.Context, torture.Job) (*torture.Outcome, error) {
	if p := s.pool.Load(); p != nil {
		return distrib.TortureRemote(p)
	}
	return nil
}

// Thm1Remote is the Exec.RemoteThm1 hook of the Theorem-1 sweep, nil
// without -listen.
func (s *Session) Thm1Remote() func(context.Context, experiments.Thm1Job) (experiments.SweepSample, error) {
	if p := s.pool.Load(); p != nil {
		return distrib.Thm1Remote(p)
	}
	return nil
}

// Interrupted reports whether err is the driver stopping on a cancelled
// context and, if so, says on stderr what was kept: the formatted progress
// (for example " after %d trials"; may be empty) and, with a journal, how
// to continue.
func (s *Session) Interrupted(err error, progress string, args ...any) bool {
	if !campaign.Interrupted(err) {
		return false
	}
	hint := ""
	if s.Journal != nil {
		hint = "; journaled progress kept, re-run with -resume to continue"
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted%s%s\n", s.program, fmt.Sprintf(progress, args...), hint)
	return true
}

// Close shuts the session down in reverse start order, printing the exit
// summaries: what the pool dispatched, what the journal replayed.
func (s *Session) Close() {
	if s.sink != nil {
		if err := s.sink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", s.program, err)
		}
	}
	if p := s.pool.Load(); p != nil {
		st := p.Stats()
		fmt.Fprintf(os.Stderr, "distrib: %d dispatched (%d re-dispatched, %d quarantined, %d local), %d workers joined, %d lost\n",
			st.Dispatched, st.Redispatched, st.Quarantined, st.LocalRuns, st.WorkersJoined, st.WorkerDeaths)
		p.Close()
	}
	if s.Journal != nil {
		if c := s.campaignStatus(); c.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "journal: replayed %d journaled trials, ran %d live\n", c.Resumed, c.TrialsDone-c.Resumed)
		}
		s.Journal.Close()
	}
	s.stop()
	s.plane.Load().Close()
}

// campaignStatus derives the /statusz campaign block from the program's
// metric families; nil until the plane exists.
func (s *Session) campaignStatus() *telemetry.CampaignStatus {
	p := s.plane.Load()
	if p == nil {
		return nil
	}
	names := statusSeries[s.program]
	snap := p.Reg.Snapshot()
	c := &telemetry.CampaignStatus{
		Kind:         names.kind,
		TrialsTotal:  int64(snap.Value(names.target)),
		TrialsDone:   int64(snap.Value(names.done)),
		Violations:   int64(snap.Value(names.violations)),
		FailedTrials: int64(snap.Value(names.failed)),
		Quarantined:  int64(snap.Value(names.quarantined)),
		Resumed:      int64(snap.Value(names.resumed)),
	}
	c.FillRate(p.Elapsed())
	return c
}
