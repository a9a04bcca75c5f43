// Package rng provides the counted random source of the paper's model
// (Section 2): "there exists a random source that, when called, can provide
// a process ... with a 0-1 sequence, of requested length, containing uniform
// and independent distributed random bits."
//
// Every draw is metered: the number of calls (the R of Theorem 2) and the
// number of bits are recorded locally in the Source itself. Accounting is
// deliberately sharded per source — a draw touches only the owning
// process's two plain int64 fields, never a shared atomic — and harnesses
// fold the per-source totals into a metrics.Counters at quiescent points
// (engine barriers, final snapshots) via SyncTotals. Sources are
// deterministic given their seed, which makes whole executions replayable.
package rng

import (
	"math/rand/v2"

	"omicon/internal/metrics"
)

// Source is a per-process random source. It is not safe for concurrent use;
// each simulated process owns exactly one Source. Calls and BitsDrawn may be
// read from another goroutine only when the owner is quiescent (the engine
// reads them at barriers, where every process is blocked or done).
type Source struct {
	// pcg is embedded (not held behind rand.NewPCG's pointer) so that a
	// Source is one self-contained block of memory: NewSources can lay n
	// of them out contiguously with a single allocation per source for
	// the rand.Rand wrapper instead of three.
	pcg rand.PCG
	rnd *rand.Rand
	// calls and bits meter this source's consumption: the number of
	// random-source accesses (the R of Theorem 2) and the number of bits
	// drawn. They are the authoritative accounting; shared counters are
	// derived from them by SyncTotals.
	calls int64
	bits  int64
}

// New returns a Source seeded deterministically from (seed, stream).
// Distinct streams (e.g. process IDs) yield independent-looking sequences.
func New(seed, stream uint64) *Source {
	s := new(Source)
	s.init(seed, stream)
	return s
}

// NewSources returns sources for streams 0..n-1 of the given seed in one
// contiguous backing array. Source i draws the identical sequence to
// New(seed, i); only the allocation layout differs — the engines create n
// of these per execution, so the per-source constant matters at large n
// (see docs/PERFORMANCE.md). The returned slice must not be resized;
// pointers into it stay valid for the sources' lifetime.
func NewSources(seed uint64, n int) []Source {
	out := make([]Source, n)
	for i := range out {
		out[i].init(seed, uint64(i))
	}
	return out
}

// init seeds s in place, identical to the stream New produces.
func (s *Source) init(seed, stream uint64) {
	// splitmix-style avalanche so that nearby (seed, stream) pairs do not
	// produce correlated PCG states.
	s.pcg.Seed(mix(seed, 0x9e3779b97f4a7c15^stream), mix(stream, seed))
	s.rnd = rand.New(&s.pcg)
}

func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Bit draws a single uniform bit. This is one random-source access drawing
// one bit — the unit the main algorithm spends once per epoch per process.
func (s *Source) Bit() int {
	s.account(1)
	return int(s.rnd.Uint64() & 1)
}

// Bits draws k uniform bits as a slice, in a single random-source access.
func (s *Source) Bits(k int) []int {
	if k <= 0 {
		return nil
	}
	s.account(int64(k))
	out := make([]int, k)
	for i := range out {
		out[i] = int(s.rnd.Uint64() & 1)
	}
	return out
}

// IntN draws a uniform integer in [0, n) in one random-source access,
// accounting ceil(log2 n) bits.
func (s *Source) IntN(n int) int {
	if n <= 1 {
		return 0
	}
	s.account(int64(bitsFor(n)))
	return s.rnd.IntN(n)
}

// Perm draws a uniform permutation of [0, n) in one access.
func (s *Source) Perm(n int) []int {
	if n <= 0 {
		return nil
	}
	total := int64(0)
	for i := 2; i <= n; i++ {
		total += int64(bitsFor(i))
	}
	s.account(total)
	return s.rnd.Perm(n)
}

// Float64 draws a uniform float in [0,1), accounted as 53 bits.
func (s *Source) Float64() float64 {
	s.account(53)
	return s.rnd.Float64()
}

// Calls returns the number of random-source accesses made so far by this
// process.
func (s *Source) Calls() int64 { return s.calls }

// BitsDrawn returns the number of random bits drawn so far by this process.
func (s *Source) BitsDrawn() int64 { return s.bits }

func (s *Source) account(bits int64) {
	s.calls++
	s.bits += bits
}

// SyncTotals folds the per-source randomness totals into c. Callers invoke
// it at points where every source is quiescent — the engine barrier, a
// transport node's post-run snapshot — so that c's randomness counters are
// exact there. Between sync points the shared counters lag the per-source
// truth; trace.Verify proves the sums still match exactly at every
// emission point.
func SyncTotals(c *metrics.Counters, sources ...*Source) {
	calls, bits := Sum(sources...)
	c.SetRandom(calls, bits)
}

// Sum returns the combined randomness totals of the sources without
// touching any shared counter. It is the per-shard half of SyncTotals:
// the engine has each shard sum its own contiguous source range
// at a barrier and the coordinator folds the shard partials (in shard
// order, though integer addition makes the order immaterial) into the
// shared counters. The quiescence contract is the caller's: every summed
// source must be blocked or done.
func Sum(sources ...*Source) (calls, bits int64) {
	for _, s := range sources {
		if s == nil {
			continue
		}
		calls += s.calls
		bits += s.bits
	}
	return calls, bits
}

// bitsFor returns ceil(log2(n)) for n >= 2.
func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Unmetered returns a plain deterministic *rand.Rand for infrastructure uses
// that are not part of any protocol's randomness budget (adversary
// strategies, workload generation, graph construction). Keeping these off
// the books is essential: the paper's R counts only the protocol's accesses.
func Unmetered(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix(seed, stream), mix(stream, ^seed)))
}
