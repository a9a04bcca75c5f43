package omicon_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandSmoke builds every CLI and runs it once with fast flags,
// checking the exit status and a marker string in the output — the
// end-to-end guarantee that the shipped tools actually work.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary; run without -short")
	}
	bin := t.TempDir()
	transcript := filepath.Join(bin, "run.json")
	traceFile := filepath.Join(bin, "run.trace.jsonl")
	benchJSON := filepath.Join(bin, "BENCH_sweep.json")
	walFile := filepath.Join(bin, "campaign.wal")
	tournamentWal := filepath.Join(bin, "tournament.wal")
	sweepWal := filepath.Join(bin, "sweep.wal")
	flightRec := filepath.Join(bin, "flightrec.jsonl")
	promFile := filepath.Join(bin, "scrape.prom")
	promText := "# HELP omicon_smoke_total smoke counter\n# TYPE omicon_smoke_total counter\nomicon_smoke_total 5\n"
	if err := os.WriteFile(promFile, []byte(promText), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		marker string
		exit   int // expected exit status
	}{
		{"omicon", []string{"-n", "36", "-t", "1", "-algo", "optimal", "-adversary", "split-vote", "-record", transcript, "-trace", traceFile}, "decision", 0},
		{"omicon", []string{"-n", "64", "-t", "1", "-algo", "param", "-adversary", "random-omission", "-seed", "1"}, "decision", 0},
		{"omicon", []string{"-n", "36", "-t", "1", "-adversary", "split-vote", "-advtrace"}, "| ones=", 0},
		{"replay", []string{transcript}, "activity phases", 0},
		{"replay", []string{"-verify", transcript}, "verify: OK", 0},
		{"replay", []string{"-verify", "-shards", "4", transcript}, "verify: OK", 0},
		{"tracelint", []string{traceFile}, "1 segments", 0},
		{"tracelint", []string{"-metrics", promFile, promFile}, "1 families, 1 samples", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q"}, "50 trials, 0 violations", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-status-addr", "127.0.0.1:0", "-flightrec", flightRec}, "status: serving", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-journal", walFile}, "50 trials, 0 violations", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-journal", walFile, "-resume"}, "journal: replayed 50 journaled trials, ran 0 live", 0},
		{"tournament", []string{"-trials", "1", "-seed", "1", "-protocols", "phaseking,floodset", "-adversaries", "late,eavesdrop,tree-cut,budget-schedule", "-q", "-out", filepath.Join(bin, "tournament-out"), "-journal", tournamentWal}, "losses (0 unexpected)", 0},
		{"tournament", []string{"-trials", "1", "-seed", "1", "-protocols", "phaseking,floodset", "-adversaries", "late,eavesdrop,tree-cut,budget-schedule", "-q", "-out", filepath.Join(bin, "tournament-out"), "-journal", tournamentWal, "-resume"}, "ran 0 live", 0},
		// No workers ever join: the pool degrades to in-process execution
		// and every command prints the dispatch summary on exit.
		{"tournament", []string{"-trials", "1", "-protocols", "phaseking", "-adversaries", "late", "-q", "-workers", "4", "-out", filepath.Join(bin, "tournament-out"), "-listen", "127.0.0.1:0", "-remote-wait", "100ms"}, "distrib: 0 dispatched (0 re-dispatched, 0 quarantined, 4 local)", 0},
		{"sweep", []string{"-sizes", "64", "-seeds", "1", "-json", benchJSON}, "wrote " + benchJSON, 0},
		{"sweep", []string{"-sizes", "64", "-seeds", "1", "-journal", sweepWal}, "worst adversary", 0},
		{"sweep", []string{"-sizes", "64", "-seeds", "1", "-journal", sweepWal, "-resume"}, "ran 0 live", 0},
		{"sweep", []string{"64", "128"}, "unexpected arguments [64 128]", 1},
		{"tradeoff", []string{"-mode", "param", "-n", "64", "-x", "1,4", "-seeds", "1"}, "Thm 3", 0},
		{"tradeoff", []string{"-mode", "lower", "-n", "32", "-t", "8", "-caps", "0,4", "-seeds", "1"}, "Thm 2", 0},
		{"coingame", []string{"-k", "16", "-alpha", "0.5", "-trials", "100"}, "Lemma 12", 0},
		{"graphcheck", []string{"-n", "64"}, "Theorem 4", 0},
		{"epochs", []string{"-n", "36", "-t", "1", "-seeds", "2"}, "Figure 3", 0},
		{"valency", []string{"-n", "3"}, "Lemma 13", 0},
		{"netdemo", []string{"-role", "local", "-n", "8", "-t", "1", "-algo", "phaseking"}, "agreement   : true", 0},
		{"netdemo", []string{"-role", "local", "-n", "12", "-t", "2", "-algo", "earlystop", "-adversary", "static-crash"}, "agreement   : true", 0},
		{"paper", []string{"-quick"}, "All experiments completed", 0},
	}

	built := map[string]string{}
	for _, c := range cases {
		path, ok := built[c.name]
		if !ok {
			path = filepath.Join(bin, c.name)
			build := exec.Command("go", "build", "-o", path, "./cmd/"+c.name)
			build.Env = os.Environ()
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build %s: %v\n%s", c.name, err, out)
			}
			built[c.name] = path
		}
		cmd := exec.Command(path, c.args...)
		out, err := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != c.exit {
			t.Fatalf("%s %v: exit status %d (%v), want %d\n%s", c.name, c.args, got, err, c.exit, out)
		}
		if !strings.Contains(string(out), c.marker) {
			t.Fatalf("%s %v: output missing %q:\n%s", c.name, c.args, c.marker, out)
		}
	}

	// cmd/chaos needs a campaign binary as its child, so it smokes after
	// the table built cmd/torture: one SIGKILL into a short campaign,
	// resumed to completion under the supervisor.
	chaosBin := filepath.Join(bin, "chaos")
	build := exec.Command("go", "build", "-o", chaosBin, "./cmd/chaos")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build chaos: %v\n%s", err, out)
	}
	chaosArgs := []string{
		"-dir", filepath.Join(bin, "chaos-run"), "-kills", "1",
		"-min-delay", "20ms", "-max-delay", "80ms", "-ok-codes", "0,1", "--",
		built["torture"], "-trials", "120", "-seed", "5",
		"-protocols", "floodset,core", "-corpus", "{dir}/corpus", "-q",
		"-journal", "{dir}/campaign.wal", "-resume",
	}
	out, err := exec.Command(chaosBin, chaosArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("chaos %v: %v\n%s", chaosArgs, err, out)
	}
	if !strings.Contains(string(out), "chaos: campaign finished") {
		t.Fatalf("chaos: output missing completion marker:\n%s", out)
	}
}
