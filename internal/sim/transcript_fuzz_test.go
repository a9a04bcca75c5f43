package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTranscriptRoundTrip feeds arbitrary bytes through the transcript
// JSON schema and asserts the codec is stable: anything that decodes at
// all must re-encode and decode to a transcript with the same encoding, whose extracted
// schedule must survive its own round trip. This protects the corpus
// format — a corpus entry written by one torture run must mean the same
// thing to every later replay.
func FuzzTranscriptRoundTrip(f *testing.F) {
	seed := &Transcript{
		Version: TranscriptVersion, N: 4, T: 1,
		Protocol: "phaseking", Adversary: "chaos", Seed: 7, Inputs: []int{0, 1, 1, 0},
		Rounds: []RoundRecord{
			{Round: 1, Messages: 12, Bits: 96, Corrupted: []int{2}, Dropped: 2,
				Drops: []Drop{{From: 2, To: 0}, {From: 2, To: 1}}, Decided: 0, Terminated: 0},
			{Round: 2, Messages: 12, Bits: 96, Dropped: 0, Decided: 4, Terminated: 4},
		},
	}
	var buf bytes.Buffer
	if err := seed.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"n":2,"t":0,"rounds":[{"round":1,"messages":2,"bits":16,"dropped":0,"decided":0,"terminated":0}]}`))
	f.Add([]byte(`{"version":1,"n":3,"t":1,"rounds":[{"round":1,"messages":6,"bits":48,"corrupted":[0],"dropped":1,"drops":[{"from":0,"to":1}],"decided":0,"terminated":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Transcript
		if err := json.Unmarshal(data, &tr); err != nil {
			return // not a transcript; nothing to assert
		}
		var enc bytes.Buffer
		if err := tr.WriteJSON(&enc); err != nil {
			t.Fatalf("decoded transcript failed to encode: %v", err)
		}
		var back Transcript
		if err := json.Unmarshal(enc.Bytes(), &back); err != nil {
			t.Fatalf("re-encoded transcript failed to decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := back.WriteJSON(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("round trip changed the transcript:\nin:  %s\nout: %s", tr.Summary(), back.Summary())
		}

		// The extracted schedule must also round-trip.
		s := tr.Schedule()
		sb, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var s2 Schedule
		if err := json.Unmarshal(sb, &s2); err != nil {
			t.Fatalf("schedule failed to round-trip: %v", err)
		}
		if s.NumActions() != s2.NumActions() {
			t.Fatalf("schedule round trip lost actions: %d != %d", s.NumActions(), s2.NumActions())
		}
	})
}
