package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runRecorded(t *testing.T, seed uint64) *Transcript {
	t.Helper()
	n := 10
	rec, tr := NewRecorder(&scriptedAdversary{corrupt: []int{0}})
	_, err := Run(Config{N: n, T: 1, Inputs: inputs(n, 5), Seed: seed, Adversary: rec},
		func(env Env, input int) (int, error) {
			all := make([]int, 0, env.N()-1)
			for i := 0; i < env.N(); i++ {
				if i != env.ID() {
					all = append(all, i)
				}
			}
			for r := 0; r < 3; r++ {
				env.Send(bitPayload{input}, all)
				env.Exchange(nil)
			}
			return input, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTranscriptRecordsRounds(t *testing.T) {
	tr := runRecorded(t, 1)
	if len(tr.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(tr.Rounds))
	}
	if tr.N != 10 || tr.T != 1 {
		t.Fatalf("header: %+v", tr)
	}
	first := tr.Rounds[0]
	if first.Messages != 90 {
		t.Fatalf("messages = %d, want 90", first.Messages)
	}
	if len(first.Corrupted) != 1 || first.Corrupted[0] != 0 {
		t.Fatalf("corrupted = %v", first.Corrupted)
	}
	if first.Dropped == 0 {
		t.Fatal("scripted adversary drops were not recorded")
	}
	if first.Bits == 0 {
		t.Fatal("bits not recorded")
	}
}

func TestTranscriptDeterminismEqual(t *testing.T) {
	a := runRecorded(t, 7)
	b := runRecorded(t, 7)
	if !bytes.Equal(transcriptBytes(t, a), transcriptBytes(t, b)) {
		t.Fatal("same seed must produce equal transcripts")
	}
}

func TestTranscriptJSONRoundTrip(t *testing.T) {
	tr := runRecorded(t, 3)
	enc := transcriptBytes(t, tr)
	var back Transcript
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, transcriptBytes(t, &back)) {
		t.Fatal("JSON round trip lost information")
	}
}

func TestTranscriptSummary(t *testing.T) {
	tr := runRecorded(t, 5)
	s := tr.Summary()
	if !strings.Contains(s, "rounds=3") || !strings.Contains(s, "corruptions=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestRecorderNilInner(t *testing.T) {
	rec, _ := NewRecorder(nil)
	if rec.Name() != "none" {
		t.Fatalf("Name = %q", rec.Name())
	}
}
