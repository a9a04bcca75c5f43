// Command tournament runs the cross-model adversary tournament: every
// protocol x every registered adversary family over a sweep of (n, t)
// instances, each cell checked by the torture oracle against the
// protocol's declared property set. The outcome is a win/loss/round-cost
// matrix written as report.md (human-readable) and tournament.json
// (machine-readable, schema omicon/tournament/v1) under -out.
//
//	tournament -trials 3 -seed 1 -out tournament-out
//	tournament -protocols core,benor -adversaries late,eavesdrop,tree-cut
//	tournament -workers 8 -shards -1          # same bytes as -workers 1
//
// The matrix is deterministic: the same seed and matrix flags produce
// byte-identical report.md and tournament.json at any -workers or
// -shards setting, in-process or distributed (-listen), fresh or resumed
// (-journal/-resume). Those flags, and the observability ones
// (-status-addr, -flightrec, -trace), are the bundle internal/campaigncli
// declares once for every campaign command.
//
// Exit status: 0 when no protocol that promises correctness lost a cell
// (losses of known-broken separation exhibits are expected and do not
// fail the run), 1 on unexpected losses, 2 on usage or I/O errors, 130
// on interrupt.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"omicon/internal/campaign"
	"omicon/internal/campaigncli"
	"omicon/internal/tournament"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tournament:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		trials      = flag.Int("trials", 3, "trials per (protocol, adversary, n, t) cell")
		seed        = flag.Uint64("seed", 1, "tournament seed; same seed = identical matrix")
		protocols   = flag.String("protocols", "", "comma-separated protocol subset (default: every registered protocol, separation exhibits included)")
		adversaries = flag.String("adversaries", "", "comma-separated adversary subset (default: every registered family)")
		sizes       = flag.String("sizes", "", "comma-separated instance sizes overriding each protocol's defaults")
		outDir      = flag.String("out", "tournament-out", "directory receiving report.md and tournament.json")
		quiet       = flag.Bool("q", false, "suppress per-loss log lines")
		s           = campaigncli.Register("tournament", true)
	)
	if err := s.Parse(); err != nil {
		return 2, err
	}
	var ns []int
	for _, s := range campaigncli.SplitNames(*sizes) {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
			return 2, fmt.Errorf("bad -sizes entry %q", s)
		}
		ns = append(ns, n)
	}

	if err := s.Start(); err != nil {
		return campaigncli.ExitCode(err, 2), err
	}
	defer s.Close()
	opts := tournament.Options{
		TrialsPerCell: *trials,
		Seed:          *seed,
		Protocols:     campaigncli.SplitNames(*protocols),
		Adversaries:   campaigncli.SplitNames(*adversaries),
		Sizes:         ns,
		Workers:       s.Workers,
		Shards:        s.Shards,
		Ctx:           s.Ctx,
		Journal:       s.Journal,
		Remote:        s.TortureRemote(),
		Trace:         s.Trace,
		Telemetry:     s.Telemetry,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	rep, err := tournament.Run(opts)
	if err != nil {
		if rep != nil && s.Interrupted(err, " after %d trials", rep.Trials) {
			fmt.Print(rep.Summary())
			return campaigncli.ExitInterrupted, nil
		}
		return 2, err
	}
	if err := writeReport(*outDir, rep); err != nil {
		return 2, err
	}
	fmt.Print(rep.Summary())
	if rep.UnexpectedLosses > 0 {
		return 1, nil
	}
	return 0, nil
}

// writeReport writes report.md and tournament.json under dir, each
// atomically so a crash never leaves a torn artifact.
func writeReport(dir string, rep *tournament.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := campaign.WriteFileAtomic(filepath.Join(dir, "report.md"), []byte(rep.Markdown())); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		return err
	}
	if err := campaign.WriteFileAtomic(filepath.Join(dir, "tournament.json"), b.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tournament: wrote %s and %s\n",
		filepath.Join(dir, "report.md"), filepath.Join(dir, "tournament.json"))
	return nil
}
