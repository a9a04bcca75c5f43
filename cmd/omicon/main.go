// Command omicon runs a single consensus execution in the simulator and
// prints the decision and the three complexity metrics of the paper's
// Section 2.
//
// Usage:
//
//	omicon -n 128 -t 4 -algo optimal -adversary split-vote -ones 64 -seed 1
//
// Observability (see docs/OBSERVABILITY.md): -trace writes the structured
// JSONL event stream of the execution (round boundaries with cost deltas,
// phase spans, corruptions, decisions); -advtrace logs the adversary's
// per-round decisions to stdout; -cpuprofile / -memprofile write standard
// pprof profiles:
//
//	omicon -n 256 -t 8 -algo optimal -trace run.trace.jsonl -cpuprofile cpu.pb.gz
//
// -record writes the execution's transcript, which cmd/replay
// re-executes. A recording does not carry -x, -randcap, -paperscale or
// -allow-large-t, so -record refuses to run with any of them set.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"omicon"
	"omicon/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "omicon:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 64, "number of processes")
		t        = flag.Int("t", 2, "adversary corruption budget")
		algoName = flag.String("algo", "optimal", "algorithm: optimal | param | benor | phaseking")
		advName  = flag.String("adversary", "none", "adversary family, optionally with :key=value,... parameters (e.g. late:d=3,inner=split-vote); eclipse plus every omicon.AdversaryNames entry (docs/ADVERSARIES.md)")
		ones     = flag.Int("ones", -1, "number of 1-inputs (-1 = n/2)")
		seed     = flag.Uint64("seed", 1, "execution seed")
		x        = flag.Int("x", 0, "ParamOmissions super-process count (0 = default)")
		cap      = flag.Int("randcap", 0, "BenOr per-epoch coiner cap (0 = all)")
		paper    = flag.Bool("paperscale", false, "use the paper's literal constants")
		largeT   = flag.Bool("allow-large-t", false, "disable the t < n/30 (n/60) guards")
		verbose  = flag.Bool("v", false, "print per-process decisions")
		shards   = flag.Int("shards", 0, "simulator shards (0 = one, stepped on the calling goroutine; -1 = one worker per GOMAXPROCS; k = k shard workers); results are identical at every count")
		advTrace = flag.Bool("advtrace", false, "log per-round counts and adversary activity")
		record   = flag.String("record", "", "write a JSON execution transcript to this file")

		traceFile  = flag.String("trace", "", "write the structured JSONL event trace to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the run to this file")
	)
	flag.Parse()

	// A recording carries protocol, seed and inputs, and replay rebuilds
	// the protocol with the registry's defaults; a run under any other
	// parameters could not be reproduced from it.
	if *record != "" {
		for _, f := range []struct {
			name string
			set  bool
		}{{"x", *x != 0}, {"randcap", *cap != 0}, {"paperscale", *paper}, {"allow-large-t", *largeT}} {
			if f.set {
				return fmt.Errorf("-record cannot be combined with -%s: a recording replays with default protocol parameters", f.name)
			}
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "omicon: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "omicon: memprofile:", err)
			}
		}()
	}

	algo, err := omicon.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	if *ones < 0 {
		*ones = *n / 2
	}
	cfg := omicon.Config{
		N: *n, T: *t,
		Algorithm:     algo,
		X:             *x,
		RandomnessCap: *cap,
		PaperScale:    *paper,
		AllowLargeT:   *largeT,
		Shards:        *shards,
	}
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			return ferr
		}
		sink := trace.NewJSONL(f)
		defer func() {
			if cerr := sink.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "omicon: trace:", cerr)
			}
		}()
		cfg.Trace = omicon.NewTracer(sink)
	}
	inst, err := omicon.NewInstance(cfg)
	if err != nil {
		return err
	}

	var adv omicon.Adversary
	if *advName == "eclipse" {
		if adv = omicon.EclipseOn(inst, *n/10); adv == nil {
			return fmt.Errorf("eclipse requires -algo optimal")
		}
	} else if adv, err = omicon.ParseAdversary(*advName, *n, *t, *seed); err != nil {
		return err
	}
	if *advTrace {
		adv = omicon.Traced(adv, os.Stdout)
	}
	var transcript *omicon.Transcript
	if *record != "" {
		adv, transcript = omicon.Recorded(adv)
	}

	inputs := omicon.MixedInputs(*n, *ones)
	res, err := inst.Run(inputs, *seed, adv)
	if err != nil {
		return err
	}
	if transcript != nil {
		// Stamp the replay metadata so `replay` (torture.Replay) can
		// re-execute the transcript deterministically.
		transcript.Protocol = algo.String()
		transcript.Seed = *seed
		transcript.Inputs = inputs
		f, ferr := os.Create(*record)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if ferr := transcript.WriteJSON(f); ferr != nil {
			return ferr
		}
		fmt.Printf("transcript  : %s (%s)\n", *record, transcript.Summary())
	}
	fmt.Printf("algorithm   : %s\n", algo)
	fmt.Printf("system      : n=%d t=%d inputs(ones)=%d seed=%d adversary=%s\n",
		*n, *t, *ones, *seed, adv.Name())
	d, derr := res.Decision()
	if derr != nil {
		fmt.Printf("CONSENSUS VIOLATION: %v\n", derr)
	} else {
		fmt.Printf("decision    : %d\n", d)
	}
	if err := res.CheckValidity(); err != nil {
		fmt.Printf("VALIDITY VIOLATION: %v\n", err)
	}
	fmt.Printf("rounds      : %d (non-faulty: %d)\n", res.Metrics.Rounds, res.RoundsNonFaulty())
	fmt.Printf("messages    : %d\n", res.Metrics.Messages)
	fmt.Printf("comm bits   : %d\n", res.Metrics.CommBits)
	fmt.Printf("random bits : %d (calls: %d)\n", res.Metrics.RandomBits, res.Metrics.RandomCalls)
	fmt.Printf("corrupted   : %d/%d\n", res.NumCorrupted(), *n)
	if *verbose {
		for p, dec := range res.Decisions {
			status := "ok"
			if res.Corrupted[p] {
				status = "corrupted"
			}
			fmt.Printf("  process %3d: decision=%2d terminatedAt=%4d (%s)\n",
				p, dec, res.TerminatedAt[p], status)
		}
	}
	return nil
}
