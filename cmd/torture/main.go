// Command torture runs the property-based torture harness: randomized
// trials over the protocol x adversary matrix with an invariant oracle
// (agreement, validity, termination bounds, adversary legality, metrics
// sanity, transcript determinism) checked after every trial. Failing
// trials are persisted to a corpus directory as self-contained JSON
// counterexamples, optionally delta-debugged down to a minimal schedule;
// `replay -verify <entry>` (cmd/replay) re-executes one deterministically.
//
//	torture -trials 500 -seed 1 -corpus .torture-corpus -shrink
//	torture -protocols core,benor -adversaries chaos,sched-fuzz -trials 200
//	torture -inject overbudget -trials 1   # self-test: oracle must fire
//
// Observability (see docs/OBSERVABILITY.md): -trace streams every trial's
// structured events to a JSONL file; when -corpus is set, each failing
// trial additionally dumps its ring-buffer trace next to the corpus entry
// as <entry>.trace.jsonl. -cpuprofile and -memprofile write standard pprof
// profiles of the campaign.
//
// Crash recovery (see docs/RESILIENCE.md): -journal appends every
// completed trial to a CRC-framed write-ahead journal; a campaign killed
// at any point — including mid-trial or mid-append — re-run with -resume
// replays the journaled prefix and produces a report, log and corpus
// byte-identical to an uninterrupted run. SIGINT/SIGTERM shut down
// gracefully: in-flight trials finish journaling, the partial summary is
// printed, and the exit code is 130.
//
// Distributed execution (see docs/DISTRIBUTED.md): -listen accepts
// cmd/worker processes and dispatches trials to them over TCP, with
// heartbeat crash detection, deterministic re-dispatch, poison-trial
// quarantine and graceful degradation to in-process execution; report,
// log, corpus and journal stay byte-identical to a single-process run.
// -addr-file publishes the bound address for -connect-file workers;
// -workers-remote/-remote-wait control the start-up fleet wait.
//
// Exit status: 0 when every trial satisfied the oracle, 1 on violations,
// 2 on usage or I/O errors, 130 on interrupt.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"omicon/internal/campaigncli"
	"omicon/internal/torture"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "torture:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		trials      = flag.Int("trials", 200, "number of randomized trials across the matrix")
		seed        = flag.Uint64("seed", 1, "campaign seed; same seed = identical campaign")
		protocols   = flag.String("protocols", "", "comma-separated protocol subset (default: all correct protocols)")
		adversaries = flag.String("adversaries", "", "comma-separated adversary subset (default: the portfolio)")
		corpus      = flag.String("corpus", "", "directory receiving failing-trial counterexamples")
		shrink      = flag.Bool("shrink", false, "delta-debug failing schedules to minimal counterexamples")
		shrinkRuns  = flag.Int("shrink-runs", 200, "max replays the shrinker may spend per failure")
		determinism = flag.Int("determinism", 10, "re-run every k-th trial and require a byte-identical transcript (0 = off)")
		inject      = flag.String("inject", "", "deliberate sabotage self-test: overbudget | honest-drop")
		quiet       = flag.Bool("q", false, "suppress per-violation log lines")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile after the campaign to this file")
		s           = campaigncli.Register("torture", true)
	)
	if err := s.Parse(); err != nil {
		return 2, err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 2, err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "torture: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "torture: memprofile:", err)
			}
		}()
	}

	if err := s.Start(); err != nil {
		return campaigncli.ExitCode(err, 2), err
	}
	defer s.Close()
	opts := torture.Options{
		Trials:           *trials,
		Seed:             *seed,
		Protocols:        campaigncli.SplitNames(*protocols),
		Adversaries:      campaigncli.SplitNames(*adversaries),
		CorpusDir:        *corpus,
		Shrink:           *shrink,
		ShrinkMaxRuns:    *shrinkRuns,
		DeterminismEvery: *determinism,
		Inject:           *inject,
		Workers:          s.Workers,
		Shards:           s.Shards,
		Ctx:              s.Ctx,
		Journal:          s.Journal,
		Remote:           s.TortureRemote(),
		Trace:            s.Trace,
		Telemetry:        s.Telemetry,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	rep, err := torture.Run(opts)
	if err != nil {
		if rep != nil && s.Interrupted(err, " after %d trials", rep.Trials) {
			fmt.Print(rep.Summary())
			return campaigncli.ExitInterrupted, nil
		}
		return 2, err
	}
	fmt.Print(rep.Summary())
	if rep.Violations > 0 {
		return 1, nil
	}
	return 0, nil
}
