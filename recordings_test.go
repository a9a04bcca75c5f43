package omicon_test

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"omicon/internal/codec"
	"omicon/internal/sim"
	"omicon/internal/torture"
	"omicon/internal/transport"
)

// TestCommittedRecordingsReplay re-executes every transcript committed under
// testdata/recordings through torture.Replay — at the default one shard and
// with shard workers — and requires each fresh recording to match the
// committed bytes exactly. This pins the replay format against engine
// changes: any drift in delivery order, rng accounting or corruption
// bookkeeping in either mode shows up as a byte diff here.
func TestCommittedRecordingsReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "recordings", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed recordings found under testdata/recordings")
	}
	for _, path := range paths {
		for _, shards := range []int{0, 8} {
			name := filepath.Base(path)
			mode := "default"
			if shards != 0 {
				mode = "sharded"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				e, err := torture.LoadArtifact(path)
				if err != nil {
					t.Fatal(err)
				}
				res, err := torture.Replay(e, shards, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.RunErr != nil {
					t.Fatalf("replay run: %v", res.RunErr)
				}
				var got bytes.Buffer
				if err := res.Transcript.WriteJSON(&got); err != nil {
					t.Fatal(err)
				}
				if !res.ByteIdentical || !bytes.Equal(data, got.Bytes()) {
					t.Fatalf("replayed transcript diverges from the committed recording\n  recorded: %s\n  replayed: %s",
						e.Transcript.Summary(), res.Transcript.Summary())
				}
			})
		}
	}
}

// TestCommittedRecordingsOverTCP is the simulator-versus-network
// differential: every committed recording is replayed over loopback TCP —
// one transport node per process, the coordinator running the recorded
// schedule — and must reproduce the committed transcript round for round,
// and the simulator's decisions. The one expected difference is cost: a
// payload travels as a registry frame, so each message carries one extra
// byte (its wire kind, a one-byte uvarint for every protocol here).
func TestCommittedRecordingsOverTCP(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "recordings", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed recordings found under testdata/recordings")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) { replayOverTCP(t, path) })
	}
}

func replayOverTCP(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want sim.Transcript
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode: %v", err)
	}
	spec, err := torture.FindProtocol(want.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	n, tf := want.N, want.T
	proto, bound, err := spec.Build(n, tf)
	if err != nil {
		t.Fatalf("rebuilding %s for n=%d t=%d: %v", want.Protocol, n, tf, err)
	}
	simRes, err := sim.Run(sim.Config{
		N: n, T: tf, Inputs: want.Inputs, Seed: want.Seed,
		Adversary: sim.NewStrictScheduleAdversary(want.Adversary, want.Schedule()), MaxRounds: bound + 64,
	}, proto)
	if err != nil {
		t.Fatalf("simulator replay: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rec, got := sim.NewRecorder(sim.NewStrictScheduleAdversary(want.Adversary, want.Schedule()))
	coord := transport.NewCoordinator(n, tf, rec, bound+64)
	type served struct {
		res *transport.CoordinatorResult
		err error
	}
	done := make(chan served, 1)
	go func() {
		res, err := coord.Serve(ln)
		done <- served{res, err}
	}()
	reg := codec.FullRegistry()
	nodeErrs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, err := transport.Dial(ln.Addr().String(), id, n, tf, reg, want.Seed)
			if err != nil {
				nodeErrs[id] = err
				return
			}
			defer node.Close()
			_, nodeErrs[id] = node.RunProtocol(proto, want.Inputs[id])
		}(id)
	}
	wg.Wait()
	out := <-done
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	for id, err := range nodeErrs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}

	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("TCP run recorded %d rounds, committed recording has %d", len(got.Rounds), len(want.Rounds))
	}
	for i, w := range want.Rounds {
		w.Bits += 8 * int64(w.Messages)
		if g := got.Rounds[i]; !reflect.DeepEqual(g, w) {
			t.Fatalf("round %d over TCP:\n  got  %+v\n  want %+v", w.Round, g, w)
		}
	}
	for p, d := range simRes.Decisions {
		if out.res.Decisions[p] != d {
			t.Fatalf("process %d decided %d over TCP, %d in the simulator", p, out.res.Decisions[p], d)
		}
	}
	gm, sm := out.res.Metrics, simRes.Metrics
	if gm.Rounds != sm.Rounds || gm.Messages != sm.Messages || gm.CommBits != sm.CommBits+8*sm.Messages {
		t.Fatalf("TCP metrics %+v, simulator %+v", gm, sm)
	}
}
