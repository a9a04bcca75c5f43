package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omicon/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden and the generated blocks of EXPERIMENTS.md")

const experimentsDoc = "../../EXPERIMENTS.md"

// TestPaperQuickGolden pins the -quick report byte for byte. Model costs
// are deterministic and the campaign kernel commits in trial order, so the
// report must not move with the worker count: it is generated serially and
// at the default width.
func TestPaperQuickGolden(t *testing.T) {
	golden := filepath.Join("testdata", "quick.golden")
	var reports [2]bytes.Buffer
	for i, workers := range []int{1, 0} {
		if err := report(&reports[i], quickScale, sections, experiments.Exec{Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	got := reports[0].String()
	if d := firstDiff(got, reports[1].String()); d != "" {
		t.Fatalf("-quick report differs between -workers 1 and the default width: %s", d)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(got, string(want)); d != "" {
		t.Errorf("-quick report differs from %s (regenerate with go test ./cmd/paper -update): %s", golden, d)
	}
}

// TestExperimentsTablesCurrent checks that every section's generated block
// in EXPERIMENTS.md is that section's full-scale output verbatim.
func TestExperimentsTablesCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-scale report; run without -short")
	}
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, s := range sections {
		var b bytes.Buffer
		if err := s.run(&b, fullScale, experiments.Exec{}); err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		start, end, err := blockSpan(doc, s.id)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			doc = doc[:start] + b.String() + doc[end:]
			continue
		}
		if d := firstDiff(b.String(), doc[start:end]); d != "" {
			t.Errorf("%s: EXPERIMENTS.md block is stale (regenerate with go test ./cmd/paper -update): %s", s.id, d)
		}
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// blockSpan returns the byte range between the <!-- paper:ID --> line and
// the <!-- /paper:ID --> marker of section id, which must appear once.
func blockSpan(doc, id string) (start, end int, err error) {
	open, close := "<!-- paper:"+id+" -->\n", "<!-- /paper:"+id+" -->"
	if n := strings.Count(doc, open); n != 1 {
		return 0, 0, fmt.Errorf("EXPERIMENTS.md has %d %q lines, want 1", n, strings.TrimSpace(open))
	}
	start = strings.Index(doc, open) + len(open)
	end = strings.Index(doc[start:], close)
	if end < 0 {
		return 0, 0, fmt.Errorf("EXPERIMENTS.md: no %q after %q", close, strings.TrimSpace(open))
	}
	return start, start + end, nil
}

// firstDiff describes the first line where got and want differ, "" when
// they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end>"
			}
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, line(g), line(w))
		}
	}
}

func TestSelectSections(t *testing.T) {
	secs, err := selectSections("F3, E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 || secs[0].id != "E1" || secs[1].id != "F3" {
		t.Fatalf("-only F3,E1 selected %v, want E1 then F3", secs)
	}
	if _, err := selectSections("E1,E9"); err == nil || !strings.Contains(err.Error(), validIDs()) {
		t.Fatalf("-only E1,E9: err = %v, want one naming the valid ids", err)
	}
	if secs, _ := selectSections(""); len(secs) != len(sections) {
		t.Fatalf("no -only selected %d sections, want all %d", len(secs), len(sections))
	}
}
