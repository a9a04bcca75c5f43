package transport

import (
	"net"
	"sync"
	"testing"

	"omicon/internal/codec"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
)

// BenchmarkTCPRoundThroughput measures end-to-end cost per synchronous
// round over loopback TCP (compare with the in-memory engine's
// BenchmarkEngineRoundThroughput).
func BenchmarkTCPRoundThroughput(b *testing.B) {
	n := 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	rounds := b.N
	coord := NewCoordinator(n, 0, nil, rounds+8)
	done := make(chan error, 1)
	go func() {
		_, serr := coord.Serve(ln)
		done <- serr
	}()

	reg := codec.FullRegistry()
	proto := func(env sim.Env, input int) (int, error) {
		targets := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != env.ID() {
				targets = append(targets, i)
			}
		}
		for r := 0; r < rounds; r++ {
			env.Send(phaseking.ValueMsg{V: 1}, targets)
			env.Exchange(nil)
		}
		return 0, nil
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, err := Dial(ln.Addr().String(), id, n, 0, reg, 1)
			if err != nil {
				b.Error(err)
				return
			}
			defer node.Close()
			if _, err := node.RunProtocol(proto, 0); err != nil {
				b.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
