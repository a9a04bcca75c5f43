// Command sweep regenerates the Theorem 1 row of Table 1 (experiment E1 in
// DESIGN.md): it runs OptimalOmissionsConsensus across system sizes at the
// maximal fault load t = (n-1)/31, takes the worst case over the adversary
// portfolio, and prints the three complexity metrics next to their
// theoretical envelopes sqrt(n) log^2 n (rounds), n^2 log^3 n (bits) and
// n^{3/2} log^2 n (random bits), plus fitted scaling exponents. The
// reproduction target is the shape: measured/envelope ratios bounded and
// fitted exponents at or below the paper's.
//
// Besides the human-readable table, -json <file> writes the full
// measurement set as a machine-readable file (off by default; the exact
// cost gate of the repository is benchmark/model_costs.json, not this
// file). Its schema, versioned by the top-level "schema" string, is:
//
//	{
//	  "schema": "omicon/bench-sweep/v1",
//	  "seeds": <seeds per (size, adversary) cell>,
//	  "baseSeed": <base seed>,
//	  "cells": [                    // one per system size, ascending n
//	    {
//	      "n": 64, "t": 2,
//	      "samples": [              // one per (adversary, seed), adversary-major
//	        {"adversary": "...", "rounds": R, "commBits": C, "randBits": B},
//	        ...
//	      ],
//	      "rounds":   {"p50": .., "p90": .., "max": ..},  // nearest-rank
//	      "commBits": {"p50": .., "p90": .., "max": ..},  // quantiles over
//	      "randBits": {"p50": .., "p90": .., "max": ..}   // the samples
//	    }, ...
//	  ],
//	  "fits": {                     // power-law fits over worst-case points,
//	    "rounds":   {"exponent": .., "r2": ..},  // omitted when the fit
//	    "commBits": {"exponent": .., "r2": ..}   // degenerates (one size)
//	  }
//	}
//
// "rounds" counts rounds until the last non-faulty process terminated;
// "commBits"/"randBits" are the totals of the paper's Section 2 metrics.
//
// -workers, -shards, -journal/-resume, -listen and the observability flags
// are the bundle internal/campaigncli declares once for every campaign
// command (docs/RESILIENCE.md, docs/DISTRIBUTED.md, docs/OBSERVABILITY.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"omicon/internal/campaign"
	"omicon/internal/campaigncli"
	"omicon/internal/experiments"
	"omicon/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(campaigncli.ExitCode(err, 1))
	}
}

// benchFile mirrors the schema documented in the file header.
type benchFile struct {
	Schema   string                  `json:"schema"`
	Seeds    int                     `json:"seeds"`
	BaseSeed uint64                  `json:"baseSeed"`
	Cells    []experiments.SweepCell `json:"cells"`
	Fits     *benchFits              `json:"fits,omitempty"`
}

type benchFits struct {
	Rounds   benchFit `json:"rounds"`
	CommBits benchFit `json:"commBits"`
}

type benchFit struct {
	Exponent float64 `json:"exponent"`
	R2       float64 `json:"r2"`
}

const benchSchema = "omicon/bench-sweep/v1"

func run() error {
	var (
		sizes    = flag.String("sizes", "64,128,256,512", "comma-separated system sizes")
		seeds    = flag.Int("seeds", 3, "seeds per (size, adversary) cell")
		base     = flag.Uint64("seed", 1, "base seed")
		jsonPath = flag.String("json", "", "write machine-readable results to this file (empty = off)")
		s        = campaigncli.Register("sweep", false)
	)
	if err := s.Parse(); err != nil {
		return err
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return err
	}

	if err := s.Start(); err != nil {
		return err
	}
	defer s.Close()
	cells, err := experiments.Thm1Detailed(ns, *seeds, *base, experiments.Exec{
		Workers: s.Workers, Shards: s.Shards,
		Ctx: s.Ctx, Journal: s.Journal, RemoteThm1: s.Thm1Remote(), Telemetry: s.Telemetry,
	})
	if err != nil {
		s.Interrupted(err, "") // on SIGINT, say what was kept and how to continue
		return err
	}
	points := experiments.Worst(cells)

	fmt.Println("Table 1, row Thm 1 — OptimalOmissionsConsensus, worst case over the adversary portfolio")
	fmt.Printf("%6s %5s | %8s %12s %12s | %10s %10s %10s | %s\n",
		"n", "t", "rounds", "commBits", "randBits",
		"r/√n·lg²", "c/n²lg³", "rb/n³ᐟ²lg²", "worst adversary")
	for _, pt := range points {
		lg := math.Log2(float64(pt.N))
		fmt.Printf("%6d %5d | %8d %12d %12d | %10.3f %10.4f %10.4f | %s\n",
			pt.N, pt.T, pt.Rounds, pt.CommBits, pt.RandBits,
			float64(pt.Rounds)/(math.Sqrt(float64(pt.N))*lg*lg),
			float64(pt.CommBits)/(float64(pt.N)*float64(pt.N)*lg*lg*lg),
			float64(pt.RandBits)/(math.Pow(float64(pt.N), 1.5)*lg*lg),
			pt.WorstAdversary)
	}

	var rfit, bfit stats.Power
	haveFits := false
	if rfit, bfit, err = experiments.Thm1Fits(points); err == nil {
		haveFits = true
		fmt.Printf("\nfitted rounds   ~ n^%.2f (R²=%.3f; paper: n^0.5·polylog)\n", rfit.Exponent, rfit.R2)
		fmt.Printf("fitted commBits ~ n^%.2f (R²=%.3f; paper: n^2·polylog)\n", bfit.Exponent, bfit.R2)
	}

	if *jsonPath != "" {
		out := benchFile{Schema: benchSchema, Seeds: *seeds, BaseSeed: *base, Cells: cells}
		if haveFits {
			out.Fits = &benchFits{
				Rounds:   benchFit{Exponent: rfit.Exponent, R2: rfit.R2},
				CommBits: benchFit{Exponent: bfit.Exponent, R2: bfit.R2},
			}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := campaign.WriteFileAtomic(*jsonPath, append(data, '\n')); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%s)\n", *jsonPath, benchSchema)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 4 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		ns = append(ns, n)
	}
	return ns, nil
}
