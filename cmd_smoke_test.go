package omicon_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
	walFile := filepath.Join(bin, "campaign.wal")
	tournamentWal := filepath.Join(bin, "tournament.wal")
	paperWal := filepath.Join(bin, "paper.wal")
	paperOut := [2]string{filepath.Join(bin, "report.md"), filepath.Join(bin, "report-resumed.md")}
	flightRec := filepath.Join(bin, "flightrec.jsonl")
	corpusDir := filepath.Join(bin, "corpus")
	// entryArg stands for the corpus entry the floodset campaign writes,
	// found by globbing corpusDir when its row runs.
	const entryArg = "{entry}"
	entryTrace := filepath.Join(bin, "entry.trace.jsonl")
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
		{"omicon", []string{"-n", "64", "-t", "1", "-algo", "param", "-x", "4", "-record", filepath.Join(bin, "unreplayable.json")}, "-x", 1},
		{"replay", []string{transcript}, "verify: OK", 0},
		{"replay", []string{"-shards", "4", transcript}, "verify: OK", 0},
		{"tracelint", []string{traceFile}, "1 segments", 0},
		{"tracelint", []string{"-metrics", promFile, promFile}, "1 families, 1 samples", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q"}, "50 trials, 0 violations", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-status-addr", "127.0.0.1:0", "-flightrec", flightRec}, "status: serving", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-journal", walFile}, "50 trials, 0 violations", 0},
		{"torture", []string{"-trials", "50", "-seed", "1", "-q", "-journal", walFile, "-resume"}, "journal: replayed 50 journaled trials, ran 0 live", 0},
		{"torture", []string{"-protocols", "floodset", "-adversaries", "flood-split", "-trials", "8", "-seed", "7", "-corpus", corpusDir, "-shrink", "-q"}, "corpus: ", 1},
		{"replay", []string{entryArg}, "verify: reproduced the recorded agreement violation", 0},
		{"replay", []string{"-trace", entryTrace, entryArg}, "activity phases", 0},
		{"tracelint", []string{entryTrace}, "1 segments", 0},
		{"tournament", []string{"-trials", "1", "-seed", "1", "-protocols", "phaseking,floodset", "-adversaries", "late,eavesdrop,tree-cut,budget-schedule", "-q", "-out", filepath.Join(bin, "tournament-out"), "-journal", tournamentWal}, "losses (0 unexpected)", 0},
		{"tournament", []string{"-trials", "1", "-seed", "1", "-protocols", "phaseking,floodset", "-adversaries", "late,eavesdrop,tree-cut,budget-schedule", "-q", "-out", filepath.Join(bin, "tournament-out"), "-journal", tournamentWal, "-resume"}, "ran 0 live", 0},
		// No workers ever join: the pool degrades to in-process execution
		// and every command prints the dispatch summary on exit.
		{"tournament", []string{"-trials", "1", "-protocols", "phaseking", "-adversaries", "late", "-q", "-workers", "4", "-out", filepath.Join(bin, "tournament-out"), "-listen", "127.0.0.1:0", "-remote-wait", "100ms"}, "distrib: 0 dispatched (0 re-dispatched, 0 quarantined, 4 local)", 0},
		{"paper", []string{"-quick", "-only", "E1", "-journal", paperWal, "-out", paperOut[0]}, "worst adversary", 0},
		{"paper", []string{"-quick", "-only", "E1", "-journal", paperWal, "-resume", "-out", paperOut[1]}, "ran 0 live", 0},
		{"paper", []string{"-only", "E9"}, "valid: E1, E2, E3, E5, E6, F1, F3, T4, L13, SEP", 1},
		{"paper", []string{"E1"}, "unexpected arguments [E1]", 1},
		{"paper", []string{"-quick", "-only", "L13,F1"}, "Lemma 13 witnesses", 0},
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
		args := slices.Clone(c.args)
		for i, a := range args {
			if a == entryArg {
				entries, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
				if err != nil || len(entries) == 0 {
					t.Fatalf("no corpus entry under %s (%v)", corpusDir, err)
				}
				args[i] = entries[0]
			}
		}
		cmd := exec.Command(path, args...)
		out, err := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != c.exit {
			t.Fatalf("%s %v: exit status %d (%v), want %d\n%s", c.name, args, got, err, c.exit, out)
		}
		if !strings.Contains(string(out), c.marker) {
			t.Fatalf("%s %v: output missing %q:\n%s", c.name, args, c.marker, out)
		}
	}

	// The resumed report replays every trial from the journal and must
	// equal the live one byte for byte.
	live, err := os.ReadFile(paperOut[0])
	if err != nil {
		t.Fatal(err)
	}
	if resumed, err := os.ReadFile(paperOut[1]); err != nil || string(resumed) != string(live) {
		t.Fatalf("paper -resume: report differs from the live run (err %v):\n%s\n---\n%s", err, resumed, live)
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
