package sim

import (
	"fmt"
	"runtime"
	"sync"

	"omicon/internal/metrics"
	"omicon/internal/rng"
)

// The engine executes one configuration in lockstep rounds. The processes
// are split into k contiguous index shards (the ±1-balanced blocks of
// partition.Blocks, which Algorithm 1 uses too). A round is a step phase — each
// shard resumes its live processes in pid order, each until its next
// Exchange or its return — followed by one communication phase. Processes
// are pooled coroutines (coro.go), so a step is a direct switch rather
// than a scheduler round trip; Env.Send appends into the shard's outbox. At
// one shard (Shards 0 or 1) the caller's goroutine does all of it: no
// worker, no channel, every phase a plain call, and the shard's outbox is
// the round outbox. With k >= 2 a worker goroutine per shard runs the step
// phase and, as chunk w of the embedded CommPhase (comm.go), the chunked
// parts of the communication phase in parallel.
//
// DETERMINISM CONTRACT: every observable output — Result, metrics,
// transcripts, traces, torture ring dumps — is byte-identical at any shard
// count. The contract holds because every merge runs in shard-index order,
// which, shards being contiguous ascending pid ranges, is ascending pid
// order:
//
//   - per-shard outboxes concatenate in shard order before the canonical
//     sort, so drop indices and delivery order cannot shift;
//   - per-shard done-event lists fold into the Result in shard order after
//     the step phase, so decisions, termination rounds, queued trace
//     events and — when several processes fail in one round — the
//     reported error (the smallest pid's) land as if pid-ordered;
//   - per-shard randomness partials (rng.Sum over each shard's sources)
//     fold into the shared counters only at traced barriers;
//   - trace events from processes queue in per-pid slots and flush
//     pid-major at barriers, the observer's discipline.

// doneEvent records a termination observed in a step phase, folded into
// the Result after it in pid order.
type doneEvent struct {
	pid      int
	decision int
	err      error
}

// shardTask names the phases a shard can be asked to run.
type shardTask uint8

const (
	taskStep shardTask = iota // resume processes, which stage into the shard outbox
	taskView                  // fill View ranges, fold rng
	taskFill                  // place survivors, publish own pids' inboxes
)

// shardState is one shard's scratch, touched by its stepping goroutine
// during phases and by the coordinator between them.
type shardState struct {
	outbox    []Message
	sentBits  int64
	unordered bool  // some sender named targets out of ascending order
	counts    []int // messages per receiver: the shard's chunk of CommPhase.counts
	dones     []doneEvent
	err       error // first invalid send, in pid order
	panicked  any   // a protocol's panic value; the shard stopped stepping
	// randomness partials folded at traced barriers
	randCalls, randBits int64
}

type engine struct {
	CommPhase // shard w runs chunk w of its chunked parts

	cfg   Config
	proto Protocol
	res   *Result

	obs       *observer // nil when untraced
	round     int
	lastRound int

	shards   []shardState
	tasks    []chan shardTask // nil at one shard: phases run inline
	phase    sync.WaitGroup
	workerWG sync.WaitGroup

	crew     *crew
	procs    []coroutine // the crew's, indexed by pid
	aborting bool        // set by shutdown: parked processes unwind
	panicked any         // the first protocol panic, re-raised by Run
}

// newEngine sets up one execution of the normalized cfg: shards, workers
// (k >= 2 only) and a crew of coroutines handed processes 0..N-1, whose
// round memory the phases grow into.
func newEngine(cfg Config, proto Protocol) *engine {
	n := cfg.N
	k := cfg.Shards
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	k = max(1, min(k, n))

	s := &engine{
		cfg:    cfg,
		proto:  proto,
		res:    newResult(cfg),
		shards: make([]shardState, k),
	}
	s.CommPhase.Init(n, cfg.T, k, cfg.Adversary, cfg.Trace, &metrics.Counters{}, make([]bool, n), s.res.Decisions)
	s.view.Inputs = s.res.Inputs // a TCP View has none: inputs are node-local
	s.snapshots = make([]any, n)
	s.sources = make([]*rng.Source, n)
	// One contiguous allocation for all n sources; streams are identical
	// to rng.New(seed, p).
	srcBacking := rng.NewSources(cfg.Seed, n)
	s.crew, s.procs = getCrew(n)
	c := s.crew
	s.roundMemory = c.roundMemory
	if k > 1 {
		s.outbox = c.merged
	}
	for len(c.outboxes) < k {
		c.outboxes = append(c.outboxes, nil)
	}
	for w := range s.shards {
		st := &s.shards[w]
		st.outbox = c.outboxes[w]
		st.counts = s.counts[w*n : (w+1)*n]
		st.dones = make([]doneEvent, 0, s.cuts[w+1]-s.cuts[w])
		for p := s.cuts[w]; p < s.cuts[w+1]; p++ {
			s.sources[p] = &srcBacking[p]
			s.alive[p] = true
			env := s.procs[p].env
			env.eng, env.shard, env.id, env.round, env.rand = s, st, p, 0, s.sources[p]
		}
	}
	if cfg.Trace.Enabled() {
		s.obs = newObserver(cfg.Trace, s.counters, s.sources)
		cfg.Trace.ExecStart(fmt.Sprintf("sim n=%d t=%d adversary=%s", cfg.N, cfg.T, cfg.Adversary.Name()), cfg.Seed)
	}
	if k > 1 {
		s.tasks = make([]chan shardTask, k)
		for w := 0; w < k; w++ {
			s.tasks[w] = make(chan shardTask)
			s.workerWG.Add(1)
			go s.worker(w)
		}
	}
	return s
}

// shutdown unwinds every process still parked mid-protocol — resumed with
// aborting set, each panics errAborted inside its own coroutine, running
// its deferred code there — stops the workers, then returns the crew to the
// pool with the round memory, drop mask unmarked and outboxes at length 0;
// the engine keeps no reference to any of it.
func (s *engine) shutdown() {
	s.aborting = true
	for p := range s.procs {
		co := &s.procs[p]
		if s.alive[p] {
			co.next()
		}
		env := co.env
		env.eng, env.shard, env.rand, env.err = nil, nil, nil, nil
	}
	for w := range s.tasks {
		close(s.tasks[w])
	}
	s.workerWG.Wait()
	s.unmark()
	c := s.crew
	for w := range s.shards {
		c.outboxes[w], s.shards[w].outbox = s.shards[w].outbox[:0], nil
	}
	if len(s.shards) > 1 {
		c.merged = s.outbox[:0]
	}
	c.roundMemory, s.roundMemory = s.roundMemory, roundMemory{}
	s.outbox, s.dropped, s.view.Outbox, s.inboxes = nil, nil, nil, nil
	crews.Put(c)
}

// loop is the coordinator: it drives the step phases and runs one
// communication phase per round. It ends with shutdown — also on a panic
// out of the adversary — so aborted processes have unwound before Run's
// final accounting.
func (s *engine) loop() error {
	active := s.cfg.N
	defer func() { s.lastRound = s.round }()
	defer s.shutdown()

	for active > 0 {
		s.runPhase(taskStep)
		// Fold terminations in shard order (= pid order): decisions,
		// termination rounds, queued decide events and the first protocol
		// error land in ascending pid order at any shard count.
		for w := range s.shards {
			st := &s.shards[w]
			if st.panicked != nil {
				s.panicked = st.panicked
				return errAborted
			}
			for _, de := range st.dones {
				active--
				s.res.Decisions[de.pid] = de.decision
				s.res.TerminatedAt[de.pid] = s.round
				if de.err != nil && s.res.protocolErr == nil {
					s.res.protocolErr = fmt.Errorf("sim: process %d: %w", de.pid, de.err)
				}
				if s.obs != nil {
					s.obs.decide(s.round, de.pid, de.decision)
				}
			}
		}
		if active == 0 {
			return nil
		}
		s.round++
		if s.round > s.cfg.MaxRounds {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, s.cfg.MaxRounds)
		}
		s.counters.AddRounds(1)
		if err := s.communicate(); err != nil {
			return err
		}
	}
	return nil
}

// communicate runs one communication phase: merge shard outboxes, then the
// kernel's parts, chunked across the shards.
func (s *engine) communicate() error {
	for w := range s.shards {
		if err := s.shards[w].err; err != nil {
			// Validation failures surface in pid order: shards are checked
			// ascending and each recorded its first offender.
			return err
		}
	}
	// Chunk w is shard w's range, its counts already staged. One shard's
	// outbox is the round outbox; more concatenate into the kernel's,
	// keeping its grown capacity round to round.
	var bits int64
	ordered := true
	for w := range s.shards {
		st := &s.shards[w]
		bits += st.sentBits
		ordered = ordered && !st.unordered
		s.chunks[w+1] = s.chunks[w] + len(st.outbox)
	}
	out := s.shards[0].outbox
	if len(s.shards) > 1 {
		out = grow(s.outbox[:0], s.chunks[len(s.shards)])
		for w := range s.shards {
			out = append(out, s.shards[w].outbox...)
		}
	}
	if s.open(s.round, out, bits, ordered) {
		s.runPhase(taskView)
		ndrop, err := s.judge()
		if err != nil {
			return err
		}
		if s.obs != nil {
			// Barrier: fold the per-shard randomness partials (computed during
			// taskView; every source has been quiescent since) so the shared
			// counters are exact for the snapshot.
			var calls, rbits int64
			for w := range s.shards {
				calls += s.shards[w].randCalls
				rbits += s.shards[w].randBits
			}
			s.counters.SetRandom(calls, rbits)
			s.obs.roundEnd(s.round, out, int64(ndrop), s.alive)
		}
	}
	s.cursors()
	s.runPhase(taskFill)
	s.unmark()
	return nil
}

// runPhase runs one task on every shard: inline at one shard, otherwise
// broadcast to the workers and awaited — a handful of channel operations
// per phase, none per process.
func (s *engine) runPhase(t shardTask) {
	if s.tasks == nil {
		s.runTask(0, t)
		return
	}
	s.phase.Add(len(s.shards))
	for w := range s.tasks {
		s.tasks[w] <- t
	}
	s.phase.Wait()
}

func (s *engine) worker(w int) {
	defer s.workerWG.Done()
	for t := range s.tasks[w] {
		s.runTask(w, t)
		s.phase.Done()
	}
}

func (s *engine) runTask(w int, t shardTask) {
	switch t {
	case taskStep:
		s.stepShard(w)
	case taskView:
		s.viewChunk(w)
		if s.obs != nil {
			st := &s.shards[w]
			st.randCalls, st.randBits = rng.Sum(s.sources[s.cuts[w]:s.cuts[w+1]]...)
		}
	case taskFill:
		s.fillChunk(w)
	}
}

// stepShard advances every live process of shard w by one local
// computation phase, strictly in pid order: one next() runs the process,
// staging its sends, until it yields from Exchange or returns; a return cuts
// back what it staged, and the error it may have left. A protocol panic
// stops the shard; the dead coroutine is dropped from the crew (never
// reused) and the value goes to Run's caller.
func (s *engine) stepShard(w int) {
	st := &s.shards[w]
	st.outbox = st.outbox[:0]
	st.sentBits = 0
	st.unordered = false
	clear(st.counts)
	st.dones = st.dones[:0]
	st.err = nil
	p, hi := s.cuts[w], s.cuts[w+1]
	defer func() {
		if r := recover(); r != nil {
			st.panicked = r
			s.alive[p] = false
			s.procs[p].next = nil
		}
	}()
	for ; p < hi; p++ {
		if !s.alive[p] {
			continue
		}
		co := &s.procs[p]
		mark, bits, unordered, err := len(st.outbox), st.sentBits, st.unordered, st.err
		if done, _ := co.next(); done {
			for _, m := range st.outbox[mark:] {
				st.counts[m.To]--
			}
			st.outbox, st.sentBits, st.unordered, st.err = st.outbox[:mark], bits, unordered, err
			s.alive[p] = false
			st.dones = append(st.dones, doneEvent{pid: p, decision: co.env.decision, err: co.env.err})
		}
	}
}
