// Command replay analyzes a recorded execution — a transcript written by
// `omicon -record file.json` or a torture corpus entry — and prints its
// decision latency, corruption timeline, omission pressure and activity
// segmentation, without re-running the execution.
//
// With -verify it also re-executes the artifact (torture.Replay): the
// recorded schedule is replayed strictly against a freshly built protocol
// instance, and the fresh transcript must match the recorded one byte for
// byte; a corpus entry must also reproduce its recorded violation kind.
// Verification needs the action-level replay metadata of version-1
// transcripts; older aggregate-only transcripts still analyze fine but
// cannot be re-executed.
//
//	replay run.json
//	replay -verify -shards 4 run.json
//	replay -verify .torture-corpus/torture-floodset-....json
//
// Exit status: 0 on success, 1 on a failed verification or any error.
package main

import (
	"flag"
	"fmt"
	"os"

	"omicon/internal/analysis"
	"omicon/internal/torture"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run() error {
	verify := flag.Bool("verify", false, "re-execute the artifact and require a byte-identical transcript")
	shards := flag.Int("shards", 0, "simulator shards for -verify (0 = one, stepped on the calling goroutine; -1 = one worker per GOMAXPROCS; k = k shard workers); the replay must match at every count")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: replay [-verify] [-shards k] <transcript.json | corpus-entry.json>")
	}
	path := flag.Arg(0)
	e, err := torture.LoadArtifact(path)
	if err != nil {
		return err
	}

	tr, kind := e.Transcript, "transcript"
	if len(e.Violations) > 0 {
		kind = "corpus entry"
	}
	fmt.Printf("%s %s: n=%d t=%d", kind, path, tr.N, tr.T)
	if tr.Version >= 1 {
		fmt.Printf(" v%d protocol=%s adversary=%s seed=%d", tr.Version, tr.Protocol, tr.Adversary, tr.Seed)
	} else {
		fmt.Printf(" (legacy aggregate-only format)")
	}
	fmt.Println()
	for _, v := range e.Violations {
		fmt.Printf("  recorded %s\n", v)
	}
	fmt.Println()
	fmt.Print(analysis.Analyze(tr).Report())

	if !*verify {
		return nil
	}
	res, err := torture.Replay(e, *shards)
	if err != nil {
		return err
	}
	switch {
	case len(e.Violations) > 0 && !res.Reproduced:
		return fmt.Errorf("verification FAILED: the recorded %s violation did not reproduce (replay found %v)",
			e.Violations[0].Kind, res.Verdict.Violations)
	case !res.ByteIdentical:
		return fmt.Errorf("verification FAILED: replayed transcript diverges from the recording\n"+
			"  recorded: %s\n  replayed: %s", tr.Summary(), res.Transcript.Summary())
	}
	fmt.Printf("\nverify: OK — %d rounds replayed byte-identically", len(res.Transcript.Rounds))
	if res.RunErr != nil {
		fmt.Printf(" (execution aborts identically: %v)", res.RunErr)
	}
	fmt.Println()
	if len(e.Violations) > 0 {
		fmt.Printf("verify: reproduced the recorded %s violation\n", e.Violations[0].Kind)
	}
	return nil
}
