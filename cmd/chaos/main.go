// Command chaos supervises a crash-recoverable campaign under injected
// process-level faults: it runs the child command after "--" as its own
// process group, SIGKILLs it at seeded random points (between trials,
// mid-trial, or — with -corrupt truncate-tail — effectively inside a
// journal append), injects SIGSTOP/SIGCONT stalls and journal corruption,
// and restarts it until the campaign completes, with bounded exponential
// backoff and a crash budget (docs/RESILIENCE.md).
//
// Occurrences of {dir} in the child argv are replaced by the scratch
// directory, so the same template serves every run:
//
//	chaos -kills 10 -corrupt truncate-tail -corruptions 3 -ok-codes 0,1 \
//	  -verify -- ./torture -trials 600 -seed 5 -protocols floodset,core \
//	  -corpus {dir}/corpus -shrink -journal {dir}/campaign.wal -resume
//
// With -verify, the campaign runs twice — once untouched under {dir}/clean
// and once chaos'd under {dir}/chaos — and the final report (stdout),
// violation log (stderr, minus "journal:"/"chaos:"/"distrib:"
// diagnostics) and every artifact file (minus the journal and the
// coordinator address file, whose bytes legitimately differ) must match
// byte-for-byte.
//
// Distributed campaigns (docs/DISTRIBUTED.md) add three dimensions:
// -workers N -worker-cmd "..." runs N supervised worker processes
// (restarted when they die; {dir} and {worker} substituted in the
// command), -worker-kills/-worker-stalls inject SIGKILL/SIGSTOP faults
// into random workers, and -watchdog SIGQUITs a child whose journal
// stops growing — capturing a goroutine dump — before SIGKILLing it:
//
//	chaos -kills 6 -workers 3 -worker-kills 4 -watchdog 30s -ok-codes 0,1 \
//	  -worker-cmd "./worker -connect-file {dir}/coord.addr -retries 200" \
//	  -verify -- ./torture -trials 500 -seed 5 -listen 127.0.0.1:0 \
//	  -addr-file {dir}/coord.addr -remote-wait 2s \
//	  -journal {dir}/campaign.wal -resume
//
// The -verify reference run uses the same child argv but no workers and
// no faults: a -listen campaign that never sees a worker degrades to
// in-process execution and must still produce identical artifacts.
//
// Exit status: 0 on success (and verification, if requested), 1 when the
// supervisor gave up, too few kills landed, or verification failed, 2 on
// usage errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"omicon/internal/chaos"
	"omicon/internal/telemetry"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		dir         = flag.String("dir", "", "scratch directory substituted for {dir} (default: a fresh temp dir)")
		jpath       = flag.String("journal", "{dir}/campaign.wal", "child journal path ({dir} substituted); progress detection and corruption target")
		seed        = flag.Uint64("seed", 1, "fault plan seed; same seed = same fault schedule")
		kills       = flag.Int("kills", 5, "SIGKILLs to inject at random points")
		stalls      = flag.Int("stalls", 0, "SIGSTOP/SIGCONT stalls to inject")
		stallFor    = flag.Duration("stall-for", 100*time.Millisecond, "duration of each stall")
		minDelay    = flag.Duration("min-delay", 20*time.Millisecond, "minimum delay before a fault fires")
		maxDelay    = flag.Duration("max-delay", 150*time.Millisecond, "maximum delay before a fault fires")
		corrupt     = flag.String("corrupt", "", "journal damage after kills: flip-tail | truncate-tail | readonly")
		corruptions = flag.Int("corruptions", 0, "how many kills are followed by -corrupt damage")
		budget      = flag.Int("crash-budget", 5, "consecutive no-progress deaths before giving up")
		watchdog    = flag.Duration("watchdog", 0, "SIGQUIT (stack dump) then SIGKILL a child with no journal progress for this long (0 = off)")
		wdGrace     = flag.Duration("watchdog-grace", 2*time.Second, "wait after SIGQUIT before SIGKILL")
		workerN     = flag.Int("workers", 0, "supervised worker processes to run alongside the child (restarted when they die)")
		workerCmd   = flag.String("worker-cmd", "", "worker command line, space-separated; {dir} and {worker} are substituted")
		workerKills = flag.Int("worker-kills", 0, "SIGKILLs delivered to random workers (requires -workers)")
		workerStall = flag.Int("worker-stalls", 0, "SIGSTOP/SIGCONT stalls delivered to random workers")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "base restart backoff after a no-progress death")
		backoffMax  = flag.Duration("backoff-max", 2*time.Second, "backoff ceiling")
		okCodes     = flag.String("ok-codes", "0", "comma-separated child exit codes meaning the campaign finished")
		requireKill = flag.Int("require-kills", -1, "fail unless at least this many kills landed (-1 = all planned kills)")
		verify      = flag.Bool("verify", false, "also run the campaign cleanly and require byte-identical artifacts")
		ignore      = flag.String("ignore", ".wal,.addr,.addr.tmp", "comma-separated artifact suffixes excluded from -verify dir comparison")
		verbose     = flag.Bool("v", false, "stream child output")
		statusAddr  = flag.String("status-addr", "", "serve the supervisor's /statusz, /flightrecz and /debug/pprof on this address (docs/OBSERVABILITY.md)")
		flightRec   = flag.String("flightrec", "", "dump the supervisor's flight-recorder ring to this JSONL file on SIGQUIT")
	)
	flag.Parse()
	argv := flag.Args()
	if len(argv) == 0 {
		return 2, fmt.Errorf("no child command; usage: chaos [flags] -- <command> [args with {dir}]")
	}
	codes, err := parseCodes(*okCodes)
	if err != nil {
		return 2, err
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-")
		if err != nil {
			return 2, err
		}
		*dir = tmp
		fmt.Fprintf(os.Stderr, "chaos: scratch dir %s\n", tmp)
	}

	plan := chaos.Plan{
		Seed: *seed, Kills: *kills, Stalls: *stalls, StallFor: *stallFor,
		MinDelay: *minDelay, MaxDelay: *maxDelay,
		Corrupt: *corrupt, Corruptions: *corruptions,
		WorkerKills: *workerKills, WorkerStalls: *workerStall,
	}

	// The supervisor's own plane: fault-injection progress and the chaos
	// metric catalog on /statusz (docs/OBSERVABILITY.md). The child
	// exposes its own plane through its own -status-addr flag.
	plannedFaults := int64(plan.Kills + plan.Stalls + plan.Corruptions + plan.WorkerKills + plan.WorkerStalls)
	var plane *telemetry.Plane
	plane, err = telemetry.StartPlane(telemetry.PlaneOptions{
		Program: "chaos", Addr: *statusAddr, FlightRec: *flightRec, Log: os.Stderr,
		Campaign: func() *telemetry.CampaignStatus {
			snap := plane.Reg.Snapshot()
			c := &telemetry.CampaignStatus{
				Kind:        "chaos",
				TrialsTotal: plannedFaults,
				TrialsDone: int64(snap.Value("omicon_chaos_kills_total") +
					snap.Value("omicon_chaos_stalls_total") +
					snap.Value("omicon_chaos_corruptions_total") +
					snap.Value("omicon_chaos_worker_kills_total") +
					snap.Value("omicon_chaos_worker_stalls_total")),
			}
			c.FillRate(plane.Elapsed())
			return c
		},
	})
	if err != nil {
		return 2, err
	}
	defer plane.Close()
	workerArgv := splitArgs(*workerCmd)
	if *workerN > 0 && len(workerArgv) == 0 {
		return 2, fmt.Errorf("-workers %d needs -worker-cmd", *workerN)
	}
	wantKills := *requireKill
	if wantKills < 0 {
		wantKills = plan.Kills
	}
	// withWorkers distinguishes the chaos'd run from the -verify reference
	// run, which must stay a pure single-process campaign.
	supervise := func(runDir string, p chaos.Plan, withWorkers bool) (*chaos.Result, error) {
		cfg := chaos.Config{
			Argv:          argv,
			Dir:           runDir,
			JournalPath:   chaos.ReplaceDir(*jpath, runDir),
			Plan:          p,
			CrashBudget:   *budget,
			BackoffBase:   *backoff,
			BackoffMax:    *backoffMax,
			OKCodes:       codes,
			Watchdog:      *watchdog,
			WatchdogGrace: *wdGrace,
			Log:           os.Stderr,
			Telemetry:     plane.Reg,
		}
		if withWorkers {
			cfg.Workers = *workerN
			cfg.WorkerArgv = workerArgv
		}
		if *verbose {
			cfg.ChildOutput = os.Stderr
		}
		return chaos.Run(cfg)
	}

	if !*verify {
		res, err := supervise(*dir, plan, true)
		if err != nil {
			return 1, err
		}
		if res.Kills < wantKills {
			return 1, fmt.Errorf("only %d of %d required kills landed — campaign too short for the plan", res.Kills, wantKills)
		}
		os.Stdout.Write(res.FinalStdout)
		return 0, nil
	}

	cleanDir := filepath.Join(*dir, "clean")
	chaosDir := filepath.Join(*dir, "chaos")
	fmt.Fprintf(os.Stderr, "chaos: reference run (no faults, no workers) in %s\n", cleanDir)
	clean, err := supervise(cleanDir, chaos.Plan{}, false)
	if err != nil {
		return 1, fmt.Errorf("reference run: %w", err)
	}
	fmt.Fprintf(os.Stderr, "chaos: chaos run in %s\n", chaosDir)
	res, err := supervise(chaosDir, plan, true)
	if err != nil {
		return 1, err
	}
	if res.Kills < wantKills {
		return 1, fmt.Errorf("only %d of %d required kills landed — campaign too short for the plan", res.Kills, wantKills)
	}
	if res.FinalExit != clean.FinalExit {
		return 1, fmt.Errorf("verify: final exit %d, clean run exited %d", res.FinalExit, clean.FinalExit)
	}
	if want := chaos.NormalizePaths(clean.FinalStdout, cleanDir, chaosDir); !bytes.Equal(want, res.FinalStdout) {
		return 1, fmt.Errorf("verify: report (stdout) diverged from clean run")
	}
	wantLog := chaos.StripLines(chaos.NormalizePaths(clean.FinalStderr, cleanDir, chaosDir), "journal:", "chaos:", "distrib:", "status:")
	gotLog := chaos.StripLines(res.FinalStderr, "journal:", "chaos:", "distrib:", "status:")
	if !bytes.Equal(wantLog, gotLog) {
		return 1, fmt.Errorf("verify: campaign log (stderr) diverged from clean run")
	}
	suffixes := splitList(*ignore)
	ignoreFn := func(rel string) bool {
		for _, s := range suffixes {
			if s != "" && strings.HasSuffix(rel, s) {
				return true
			}
		}
		return false
	}
	if err := chaos.DiffDirs(cleanDir, chaosDir, ignoreFn); err != nil {
		return 1, fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(os.Stderr, "chaos: verified byte-identical artifacts after %d kills, %d stalls, %d corruptions, %d worker kills, %d worker stalls (%d attempts)\n",
		res.Kills, res.Stalls, res.Corruptions, res.WorkerKills, res.WorkerStalls, res.Attempts)
	os.Stdout.Write(res.FinalStdout)
	return 0, nil
}

func parseCodes(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		c, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("invalid exit code %q", p)
		}
		out = append(out, c)
	}
	return out, nil
}

// splitArgs splits a -worker-cmd value on whitespace (no quoting; worker
// command lines are simple flag vectors without embedded spaces).
func splitArgs(s string) []string {
	return strings.Fields(s)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
