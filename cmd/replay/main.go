// Command replay is the way into a recorded execution — a transcript
// written by `omicon -record file.json` or a torture corpus entry. It
// prints the recorded run's digest (decision latency, corruption timeline,
// omission pressure, activity segmentation), then re-executes the artifact
// through torture.Replay: the recorded schedule is replayed strictly
// against a freshly built protocol instance, and the fresh transcript must
// match the recorded one byte for byte; a corpus entry must also reproduce
// its recorded violation kind. Re-execution needs the replay metadata of
// version-1 transcripts.
//
// -trace writes the re-execution's structured event stream as JSONL (one
// exec segment: the events the recorded run emitted), which cmd/tracelint
// verifies.
//
//	replay run.json
//	replay -shards 4 run.json
//	replay -trace entry.trace.jsonl .torture-corpus/torture-floodset-....json
//
// Exit status: 0 on success, 1 when the replay diverges or on any error.
package main

import (
	"flag"
	"fmt"
	"os"

	"omicon/internal/torture"
	"omicon/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run() error {
	shards := flag.Int("shards", 0, "simulator shards for the re-execution (0 = one, stepped on the calling goroutine; -1 = one worker per GOMAXPROCS; k = k shard workers); the replay must match at every count")
	traceFile := flag.String("trace", "", "write the re-execution's structured JSONL event trace to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: replay [-shards k] [-trace file] <transcript.json | corpus-entry.json>")
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
	fmt.Print(analyze(tr).report())

	var sink *trace.JSONL
	var tracer *trace.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		sink = trace.NewJSONL(f)
		tracer = trace.New(sink)
	}
	res, err := torture.Replay(e, *shards, tracer)
	if sink != nil {
		// Written on failure too: a diverging replay's events are what
		// explain the divergence.
		if cerr := sink.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace %s: %w", *traceFile, cerr)
		}
	}
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
	if *traceFile != "" {
		fmt.Printf("trace: %s\n", *traceFile)
	}
	return nil
}
