package torture

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omicon/internal/sim"
	"omicon/internal/trace"
)

// TestMatrixSmoke runs a small deterministic campaign across the default
// matrix and requires it to be violation-free: every protocol keeps its
// promises against every portfolio adversary.
func TestMatrixSmoke(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 40
	}
	rep, err := Run(Options{Trials: trials, Seed: 1, DeterminismEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		for _, e := range rep.Failures {
			t.Errorf("%s/%s n=%d t=%d seed=%d: %v", e.Protocol, e.Adversary, e.N, e.T, e.Seed, e.Violations)
		}
		t.Fatalf("%d violations in default matrix", rep.Violations)
	}
	if rep.Trials != trials {
		t.Fatalf("ran %d trials, wanted %d", rep.Trials, trials)
	}
	if rep.DeterminismChecks == 0 {
		t.Fatal("no determinism checks ran")
	}
}

// TestMatrixDeterministic runs the same campaign twice and requires
// identical reports — the harness itself must be reproducible, or corpus
// seeds would be worthless.
func TestMatrixDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		rep, err := Run(Options{Trials: 30, Seed: 42, Log: &buf})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary() + buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same options produced different campaigns:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestFloodsetPipeline is the end-to-end acceptance test on a *genuine*
// violation: FloodSet (crash-tolerant, omission-broken) against the
// FloodSplit schedule must fail agreement; the failure must be persisted
// to the corpus, shrunk to a minimal schedule that still breaks it, and
// replayed byte-identically from the corpus file.
func TestFloodsetPipeline(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Options{
		Trials:    8,
		Seed:      7,
		Protocols: []string{"floodset"},
		Adversaries: []string{
			"flood-split",
		},
		CorpusDir: dir,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("FloodSplit failed to break FloodSet: the harness cannot catch real violations")
	}
	if len(rep.CorpusPaths) == 0 {
		t.Fatal("violations found but no corpus entries written")
	}

	entry, err := LoadArtifact(rep.CorpusPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	hasAgreement := false
	for _, v := range entry.Violations {
		if v.Kind == KindAgreement {
			hasAgreement = true
		}
	}
	if !hasAgreement {
		t.Fatalf("expected an agreement violation, got %v", entry.Violations)
	}

	// The shrinker must have produced a still-failing, no-larger schedule.
	if entry.MinSchedule == nil {
		t.Fatal("shrinking was requested but no minimal schedule persisted")
	}
	if got, orig := entry.MinSchedule.NumActions(), entry.Schedule.NumActions(); got > orig {
		t.Fatalf("shrunk schedule has %d actions, original %d", got, orig)
	}
	spec, err := FindProtocol(entry.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	proto, bound, err := spec.Build(entry.N, entry.T)
	if err != nil {
		t.Fatal(err)
	}
	if _, v := replaySchedule(spec, proto, bound, entry, *entry.MinSchedule, false, 0); !v.Has(KindAgreement) {
		t.Fatalf("minimal schedule does not reproduce the agreement violation: %v", v.Violations)
	}

	// Byte-identical replay from the corpus file.
	res, err := Replay(entry, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay did not reproduce the violation: %v", res.Verdict.Violations)
	}
	if !res.ByteIdentical {
		t.Fatal("replayed transcript differs from the persisted one")
	}
}

// reCorruptor corrupts process 0 in rounds 1 and 2. The engine accepts the
// second corruption as a no-op; the transcript records both.
type reCorruptor struct{}

func (reCorruptor) Name() string { return "re-corruptor" }

func (reCorruptor) Step(v *sim.View) sim.Action {
	if v.Round <= 2 {
		return sim.Action{Corrupt: []int{0}}
	}
	return sim.Action{}
}

// TestReplayReproducesReCorruption persists the transcript violation a
// re-corruption produces and requires Replay to reproduce it byte for
// byte. A lenient replay would clamp the second corruption away.
func TestReplayReproducesReCorruption(t *testing.T) {
	const n, seed = 12, 5
	spec, err := FindProtocol("phaseking")
	if err != nil {
		t.Fatal(err)
	}
	tt := CapT(spec, n)
	proto, bound, err := spec.Build(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := TrialInputs(n, 0)
	run := runOnce(spec, proto, bound, reCorruptor{}, n, tt, inputs, seed, nil, 0)
	v := Check(CheckInput{
		N: n, T: tt, RoundBound: bound, Properties: spec.Properties,
		Result: run.res, RunErr: run.err, Transcript: run.tr,
	})
	if !v.Has(KindTranscript) {
		t.Fatalf("re-corruption not flagged as a transcript violation: %v", v.Violations)
	}
	e := &Entry{
		Version: EntryVersion, Protocol: spec.Name, Adversary: run.tr.Adversary,
		N: n, T: tt, Seed: seed, Inputs: inputs, RoundBound: bound,
		Violations: v.Violations, Schedule: run.tr.Schedule(), Transcript: run.tr,
	}
	path, err := e.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || !res.ByteIdentical {
		t.Fatalf("replay: reproduced=%v byte-identical=%v, verdict %v",
			res.Reproduced, res.ByteIdentical, res.Verdict.Violations)
	}
}

// TestInjectOverbudget proves the oracle catches an adversary stepping
// over its corruption budget, end to end: engine abort, legality verdict,
// corpus entry, strict-replay reproduction.
func TestInjectOverbudget(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Options{
		Trials:      2,
		Seed:        3,
		Protocols:   []string{"phaseking"},
		Adversaries: []string{"chaos"},
		Inject:      "overbudget",
		CorpusDir:   dir,
		Shrink:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("injected over-budget adversary was not caught")
	}
	entry, err := LoadArtifact(rep.CorpusPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if entry.Violations[0].Kind != KindLegality {
		t.Fatalf("expected a legality violation, got %v", entry.Violations)
	}
	if !strings.Contains(entry.Adversary, "overbudget") {
		t.Fatalf("entry adversary %q does not mark the injection", entry.Adversary)
	}
	res, err := Replay(entry, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("strict replay did not reproduce the budget violation: %v", res.Verdict.Violations)
	}
	if !res.ByteIdentical {
		t.Fatal("replayed transcript differs from the persisted one")
	}
	if entry.MinSchedule == nil || entry.MinSchedule.NumActions() > entry.T+1 {
		t.Fatalf("budget violation should shrink to t+1=%d corruptions, got %v",
			entry.T+1, entry.MinSchedule)
	}
}

// TestInjectHonestDrop covers the other legality clause: a drop between
// two honest processes.
func TestInjectHonestDrop(t *testing.T) {
	rep, err := Run(Options{
		Trials:      1,
		Seed:        5,
		Protocols:   []string{"dolevstrong"},
		Adversaries: []string{"none"},
		Inject:      "honest-drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 || rep.Failures[0].Violations[0].Kind != KindLegality {
		t.Fatalf("honest drop was not flagged as a legality violation: %+v", rep.Failures)
	}
}

// TestCorpusRoundTrip checks Entry persistence and the version gate.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Options{
		Trials: 8, Seed: 11,
		Protocols: []string{"floodset"}, Adversaries: []string{"flood-split"},
		CorpusDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorpusPaths) == 0 {
		t.Fatalf("expected corpus files, got none")
	}
	e, err := LoadArtifact(rep.CorpusPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != EntryVersion || e.Protocol != "floodset" || len(e.Inputs) != e.N {
		t.Fatalf("entry lost fields: %+v", e)
	}

	// A future-versioned entry must be rejected, not misread.
	data, err := os.ReadFile(rep.CorpusPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	path := filepath.Join(dir, "future.json")
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err == nil {
		t.Fatal("future-versioned corpus entry was accepted")
	}
}

// TestUnknownNames checks matrix resolution errors.
func TestUnknownNames(t *testing.T) {
	if _, err := Run(Options{Trials: 1, Protocols: []string{"nope"}}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(Options{Trials: 1, Adversaries: []string{"nope"}}); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := Run(Options{Trials: 1, Inject: "nope", Protocols: []string{"phaseking"}}); err == nil {
		t.Fatal("unknown inject mode accepted")
	}
}

// TestFailureTraceArtifact checks the observability contract of a failing
// trial: its ring-buffer trace is dumped next to the corpus entry, the dump
// is a parseable, self-consistent event stream, and the campaign tracer saw
// exactly one exec segment per trial.
func TestFailureTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	campaign := trace.NewRing(1 << 15)
	rep, err := Run(Options{
		Trials: 8, Seed: 7,
		Protocols: []string{"floodset"}, Adversaries: []string{"flood-split"},
		CorpusDir:        dir,
		Shrink:           true, // shrink replays must not pollute the stream
		DeterminismEvery: 2,    // nor determinism re-runs
		Trace:            trace.New(campaign),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("flood-split failed to break floodset")
	}
	if len(rep.TracePaths) != len(rep.CorpusPaths) {
		t.Fatalf("%d trace artifacts for %d corpus entries", len(rep.TracePaths), len(rep.CorpusPaths))
	}
	for i, p := range rep.TracePaths {
		if want := strings.TrimSuffix(rep.CorpusPaths[i], ".json") + ".trace.jsonl"; p != want {
			t.Fatalf("trace artifact %q not next to corpus entry %q", p, rep.CorpusPaths[i])
		}
		events, err := trace.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := trace.Verify(events)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(sums) != 1 {
			t.Fatalf("%s: %d segments, want 1", p, len(sums))
		}
	}
	if !strings.Contains(rep.Summary(), ".trace.jsonl") {
		t.Fatal("report summary does not surface the trace artifacts")
	}

	// The campaign stream must hold one segment per trial — shrink replays
	// and determinism re-runs run untraced.
	sums, err := trace.Verify(campaign.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != rep.Trials {
		t.Fatalf("campaign stream has %d segments for %d trials", len(sums), rep.Trials)
	}
}
