package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) pair when B is held against A.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how far b's median is on the wrong side of a's, as a share
// of a's median; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads strictly better than
// every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	as, bs := sorted(a), sorted(b)
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	if d.Better == "higher" {
		return bs[0] > as[len(as)-1]
	}
	return bs[len(bs)-1] < as[0]
}

// judge applies a metric's bound: worse when b's median is beyond it;
// unresolved when either side's own quartile spread is wider than the
// bound (the medians cannot then tell a change from noise), unless every
// run of b beats every run of a.
func judge(d metricDef, a, b []float64) string {
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if allBetter(d, a, b) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening(d, median(a), median(b)) > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// valuesOf collects a metric's values over a workload's end-to-end runs.
func valuesOf(r *results, workload, metric string) []float64 {
	var vals []float64
	for _, rec := range r.Runs {
		if rec.Workload == workload && !rec.Trace {
			vals = append(vals, rec.Metrics[metric])
		}
	}
	return vals
}

func quartileString(vals []float64) string {
	q1, q3 := quartiles(vals)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(vals), q1, q3, len(vals))
}

// compareFiles prints one row per (workload, end-to-end metric) and, for
// runs the two files share (same workload, seed, run length and pass),
// whether failed ops, artifact digest and model costs are identical. It
// returns the exit code: 1 when anything is worse or differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *results) int {
	bad, unresolved := 0, 0
	fmt.Fprintf(w, "%-20s %-16s %-10s %-9s %s\n", "workload", "metric", "verdict", "B/A", "A median [q1, q3] n  ->  B median [q1, q3] n  (bound, as a share of A's median)")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			switch v {
			case verdictWorse:
				bad++
			case verdictUnresolved:
				unresolved++
			}
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			fmt.Fprintf(w, "%-20s %-16s %-10s %-9.4f %s  ->  %s  (%g)\n", wl.Name, d.Name, v, ratio, quartileString(va), quartileString(vb), d.Bound)
		}
	}

	shared := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.Trace != rb.Trace {
				continue
			}
			shared++
			if ra.Failed != rb.Failed || ra.Attempted != rb.Attempted {
				bad++
				fmt.Fprintf(w, "DIFF %s seed %d (%s): failed ops %d/%d vs %d/%d\n", ra.Workload, ra.Seed, passName(ra.Trace), ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			}
			if ra.Digest != rb.Digest {
				bad++
				fmt.Fprintf(w, "DIFF %s seed %d (%s): artifact digest %s vs %s\n", ra.Workload, ra.Seed, passName(ra.Trace), ra.Digest, rb.Digest)
			}
			if d := firstDifference(ra.Rows, rb.Rows); d != "" {
				bad++
				fmt.Fprintf(w, "DIFF %s seed %d (%s): model costs: %s\n", ra.Workload, ra.Seed, passName(ra.Trace), d)
			}
			break
		}
	}
	fmt.Fprintf(w, "%d shared runs compared for identical failed ops, digests and model costs; %d worse or different, %d unresolved\n", shared, bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
