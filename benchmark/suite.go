package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// goldenFile is the committed table of model costs: for the golden seed
// and run length, what every op of every workload costs in the paper's
// units. Simulated statistics are exact for a fixed seed, so the suite
// compares them for equality, not within a tolerance.
const goldenFile = "model_costs.json"

//go:embed model_costs.json
var goldenJSON []byte

type golden struct {
	Seed    uint64       `json:"seed"`
	Seconds int          `json:"seconds"`
	Tables  []goldenRows `json:"tables"`
}

// goldenRows is one workload's table; Pass is "end-to-end" or "traced"
// (the traced pass covers a prefix, so its campaign sums differ).
type goldenRows struct {
	Workload string    `json:"workload"`
	Pass     string    `json:"pass"`
	Rows     []costRow `json:"rows"`
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "end-to-end"
}

// firstDifference names the first row on which two tables disagree.
func firstDifference(want, got []costRow) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("row %d %q is missing", i, want[i].Op)
		case i >= len(want):
			return fmt.Sprintf("row %d %q is new", i, got[i].Op)
		case want[i].Op != got[i].Op || want[i].N != got[i].N || want[i].Rounds != got[i].Rounds ||
			want[i].CommBits != got[i].CommBits || want[i].RandBits != got[i].RandBits:
			return fmt.Sprintf("row %d: expected %q rounds=%d commBits=%d randBits=%d, got %q rounds=%d commBits=%d randBits=%d",
				i, want[i].Op, want[i].Rounds, want[i].CommBits, want[i].RandBits,
				got[i].Op, got[i].Rounds, got[i].CommBits, got[i].RandBits)
		}
	}
	return ""
}

// checkGolden compares the records' cost tables with the golden's.
func checkGolden(g *golden, recs []*record) []string {
	var problems []string
	for _, r := range recs {
		if r.Seed != g.Seed || r.Seconds != g.Seconds {
			continue
		}
		found := false
		for _, t := range g.Tables {
			if t.Workload != r.Workload || t.Pass != passName(r.Trace) {
				continue
			}
			found = true
			if d := firstDifference(t.Rows, r.Rows); d != "" {
				problems = append(problems, fmt.Sprintf("%s (%s) model costs differ from %s: %s", r.Workload, t.Pass, goldenFile, d))
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s (%s) has no table in %s", r.Workload, passName(r.Trace), goldenFile))
		}
	}
	return problems
}

type suiteOptions struct {
	seed    uint64
	seconds int
	runs    int
	outDir  string
	update  bool
}

// results is the file the suite writes and -compare reads.
type results struct {
	Runs []*record `json:"runs"`
}

// runChild runs one pass of one workload in a fresh process — its own
// heap, its own peak RSS — and reads back its record. The child's report
// goes straight to this process's standard output.
func runChild(self string, o suiteOptions, w workload, seed uint64, traced bool) (*record, error) {
	dir := filepath.Join(o.outDir, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	recPath := filepath.Join(dir, "record.json")
	_ = os.Remove(recPath) // a stale record must not pass for this run's
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self,
		"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", traceArg, "-out", dir, "-record", recPath)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(recPath)
	if err != nil {
		return nil, fmt.Errorf("%s: child wrote no record (%v)", w.Name, runErr)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: child record: %w", w.Name, err)
	}
	return &rec, nil
}

// runSuite runs every workload — o.runs end-to-end passes and one traced
// pass each — then the checks that span workloads, and writes
// results.json. It returns the process exit code.
func runSuite(o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var g *golden
	if !o.update {
		// Simulated statistics are gated for equality, so a suite that
		// cannot compare them does not run.
		if g, err = readGolden(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if g.Seed != o.seed || g.Seconds != o.seconds {
			fmt.Fprintf(os.Stderr, "benchmark: %s is for -seed %d -seconds %d: run the suite with those, or re-baseline with -update-golden\n", goldenFile, g.Seed, g.Seconds)
			return 1
		}
	}
	var all results
	var problems []string
	first := make(map[string]*record) // each workload's end-to-end record on o.seed
	for _, w := range workloads {
		for r := 0; r <= o.runs; r++ {
			traced := r == o.runs
			seed := o.seed + uint64(r)
			if traced {
				seed = o.seed
			}
			rec, err := runChild(self, o, w, seed, traced)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			all.Runs = append(all.Runs, rec)
			if !rec.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d (%s): %d of %d ops failed", w.Name, seed, passName(traced), rec.Failed, rec.Attempted))
			}
			switch {
			case r == 0:
				first[w.Name] = rec
			case traced && first[w.Name] != nil:
				problems = append(problems, tracedAgainstEndToEnd(first[w.Name], rec)...)
			}
		}
	}

	// The byte-identity contract, across workloads: the durable campaign
	// must produce the in-process campaign's report and log, and the two
	// engines the same trials.
	for _, pair := range [][2]string{{"torture-inproc", "torture-durable"}, {"thm1-n1024", "thm1-n1024-sharded"}} {
		a, b := first[pair[0]], first[pair[1]]
		if a == nil || b == nil {
			continue
		}
		if a.Digest != b.Digest {
			problems = append(problems, fmt.Sprintf("%s and %s produced different artifacts (%s vs %s)", pair[0], pair[1], a.Digest, b.Digest))
		}
		if d := firstDifference(a.Rows, b.Rows); d != "" {
			problems = append(problems, fmt.Sprintf("%s and %s disagree on model costs: %s", pair[0], pair[1], d))
		}
	}

	if o.update {
		fresh := golden{Seed: o.seed, Seconds: o.seconds}
		for _, r := range all.Runs {
			if r.Seed == o.seed {
				fresh.Tables = append(fresh.Tables, goldenRows{Workload: r.Workload, Pass: passName(r.Trace), Rows: r.Rows})
			}
		}
		if err := writeGolden(fresh); err != nil {
			problems = append(problems, err.Error())
		} else {
			fmt.Printf("wrote %s: rebuild before the next run, the table is compiled in\n", goldenFile)
		}
	} else if diffs := checkGolden(g, all.Runs); len(diffs) > 0 {
		problems = append(problems, diffs...)
	} else {
		fmt.Printf("model costs equal %s on every op\n", goldenFile)
	}

	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		problems = append(problems, err.Error())
	}
	fmt.Printf("wrote %s (%d runs); span files are %s\n", path, len(all.Runs), filepath.Join(o.outDir, "<workload>", "trace.json"))
	for _, p := range problems {
		fmt.Printf("FAIL %s\n", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Println("ok: every output verified")
	return 0
}

// tracedAgainstEndToEnd requires ops the traced pass shares with the
// end-to-end pass (same key, hence same job) to have cost the same.
// Campaign rows are sums over different trial counts and are skipped.
func tracedAgainstEndToEnd(e2e, traced *record) []string {
	byOp := make(map[string]costRow, len(e2e.Rows))
	for _, r := range e2e.Rows {
		byOp[r.Op] = r
	}
	var problems []string
	for _, r := range traced.Rows {
		if r.N == 0 {
			continue
		}
		if want, ok := byOp[r.Op]; ok && want != r {
			problems = append(problems, fmt.Sprintf("%s op %s: traced pass cost %+v, end-to-end pass %+v", traced.Workload, r.Op, r.cost, want.cost))
		}
	}
	return problems
}

func readGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return &g, nil
}

// writeGolden writes the table one row per line, so a changed cost shows
// as a one-line diff.
func writeGolden(g golden) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"seed\": %d, \"seconds\": %d, \"tables\": [", g.Seed, g.Seconds)
	for i, t := range g.Tables {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n {\"workload\": %q, \"pass\": %q, \"rows\": [", t.Workload, t.Pass)
		for j, r := range t.Rows {
			row, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n  ")
			b.Write(row)
		}
		b.WriteString("\n ]}")
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(goldenFile, b.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
