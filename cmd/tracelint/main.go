// Command tracelint validates a JSONL event trace (see
// docs/OBSERVABILITY.md): every line must decode, every exec segment must
// be complete, and the per-round and per-span cost deltas must reconcile
// exactly with the final snapshot embedded in each exec-end event. It is
// the CI gate behind trace artifacts:
//
//	tracelint run.trace.jsonl [more.trace.jsonl ...]
//
// For each file it prints one line per exec segment (rounds and final
// totals). Exit status: 0 when every file verifies, 1 on a malformed or
// non-reconciling input, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"omicon/internal/trace"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracelint:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	quiet := flag.Bool("q", false, "suppress per-segment lines")
	flag.Parse()
	if flag.NArg() == 0 {
		return 2, fmt.Errorf("usage: tracelint [-q] <file> ...")
	}
	for _, path := range flag.Args() {
		events, err := trace.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				return 2, err
			}
			return 1, fmt.Errorf("%s: %w", path, err)
		}
		sums, err := trace.Verify(events)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", path, err)
		}
		if *quiet {
			continue
		}
		fmt.Printf("%s: %d events, %d segments\n", path, len(events), len(sums))
		for i, s := range sums {
			fmt.Printf("  segment %d (%s): %d rounds, %s\n", i, s.Note, s.Rounds, s.Final.Verbose())
		}
	}
	return 0, nil
}
