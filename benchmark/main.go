// Command benchmark is the repository's performance ledger: six named
// workloads run through the public entry points of the simulator and its
// campaign drivers, every output verified, every metric printed by name.
// README.md in this directory says what the numbers mean.
//
// One workload, as the acceptance driver runs it (from the repository
// root):
//
//	bash benchmark/run.sh --workload thm1-n1024 --seed 1 --seconds 15 --trace 0
//
// The whole suite — each workload's end-to-end pass and traced pass in a
// child process of its own, model costs compared with model_costs.json:
//
//	go run -C benchmark . -seed 1
//
// Two result files compared under the bounds of BENCHMARK.json's metrics:
//
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process; empty runs the whole suite in child processes")
		seed    = flag.Uint64("seed", 1, "derives every trial seed and input vector")
		seconds = flag.Int("seconds", nominalSeconds, "run length the workloads are sized for")
		traceOn = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end pass")
		outDir  = flag.String("out", "out", "directory for results.json, trace.json and scratch files")
		recPath = flag.String("record", "", "also write this run's full record (costs per op, digest) to the file")
		runs    = flag.Int("runs", 1, "suite mode: end-to-end passes per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		update  = flag.Bool("update-golden", false, "suite mode: rewrite model_costs.json from this run instead of comparing")
		setup   = flag.Bool("setup-only", false, "set the workload up, print a ready line and exit (the end-to-end pass times set-up in fresh processes this way)")
	)
	flag.Parse()
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -runs must be at least 1")
		os.Exit(2)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(runSuite(suiteOptions{seed: *seed, seconds: *seconds, runs: *runs, outDir: *outDir, update: *update}))
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rc := &runCtx{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), outDir: *outDir}
	runtime.GOMAXPROCS(rc.nproc)
	if *setup {
		if err := runSetupOnly(w, rc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: set-up: %v\n", w.Name, err)
			os.Exit(1)
		}
		return
	}
	run := runEndToEnd
	if *traceOn != 0 {
		run = runTraced
	}
	rec, err := run(w, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	for name, v := range rec.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Metrics[name] = 0
		}
	}
	if *recPath != "" {
		b, err := json.Marshal(rec)
		if err == nil {
			err = os.WriteFile(*recPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing record: %v\n", err)
			os.Exit(1)
		}
	}
	printRecord(os.Stdout, rec)
	if *recPath == "" { // the suite reads the record; the result line is the acceptance driver's
		fmt.Println(resultLine(rec))
	}
	if !rec.Correct {
		os.Exit(1)
	}
}
