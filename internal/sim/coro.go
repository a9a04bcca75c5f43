//go:build go1.24

package sim

import (
	"errors"
	"iter"
	"runtime"
	"sync"
)

// Every simulated process runs as a coroutine (iter.Pull): its protocol is
// straight-line code on a stack of its own, and Env.Exchange parks it by
// yielding to whichever goroutine steps its shard — Run's caller at one
// shard, the shard's worker otherwise. A step is one next() call, a direct
// switch that never goes through the scheduler, which is what makes one
// shard a plain serial loop over n processes.
//
// Coroutines outlive executions. Creating one costs about fifteen
// allocations, so after its process returns a coroutine parks and is handed
// a process of a later execution. The pooled unit is a crew — the
// coroutines of one execution, grown to the largest N it has served — kept
// in a sync.Pool, so retention is the pool's: a crew left idle through two
// collections is dropped, and a cleanup then stops its coroutines, whose
// goroutines exit. Nothing a coroutine references may lead back to its crew
// (procEnv.eng is cleared on release), or the cleanup could never run.
//
// A crew also carries the round memory of its executions — each shard's
// outbox, their concatenation, the inbox arena, the drop mask and the sort
// scratch — grown to the largest round it has served, so an execution
// starts with buffers a previous one grew. None of it is cleared on release
// (the drop mask is all false between phases anyway): a pooled crew keeps
// the last execution's payloads reachable until a later round overwrites
// them or the pool drops the crew, as a parked coroutine keeps its stack.

// errAborted unwinds a process parked in Exchange when its execution
// aborts; it never escapes the package.
//
// PANIC AUDIT: the engine raises exactly this sentinel, inside the aborted
// process's own coroutine, and run recovers precisely it. Any other panic
// crossing run is a protocol bug: it ends the coroutine (which is never
// reused) and reaches Run's caller with its original value. All adversary-
// and configuration-level failures are returned as errors from Run.
var errAborted = errors.New("sim: execution aborted")

// coroutine is one pooled process: next resumes it until its next Exchange
// (done false) or its return (done true); env is the Env it runs against.
type coroutine struct {
	next func() (done, ok bool)
	stop func()
	env  *procEnv
}

// crew is what the pool holds. The cleanup that stops the coroutines owns
// the list, not the crew, so an unreachable crew really is collectable. The
// round memory is taken by newEngine and given back by shutdown.
type crew struct {
	procs    *[]coroutine
	outboxes [][]Message // shard w's outbox, at length 0
	merged   []Message   // the concatenated outbox of k >= 2 shards, at length 0
	roundMemory
}

var crews = sync.Pool{New: func() any {
	c := &crew{procs: new([]coroutine)}
	runtime.AddCleanup(c, stopAll, c.procs)
	return c
}}

func stopAll(procs *[]coroutine) {
	for _, co := range *procs {
		co.stop()
	}
}

// getCrew returns a crew with n parked coroutines ready for processes
// 0..n-1, creating only the ones the pooled crew lacks (or lost to a
// protocol panic).
func getCrew(n int) (*crew, []coroutine) {
	c := crews.Get().(*crew)
	procs := *c.procs
	if len(procs) < n {
		procs = append(procs, make([]coroutine, n-len(procs))...)
		*c.procs = procs
	}
	procs = procs[:n]
	for p := range procs {
		if procs[p].next == nil {
			env := new(procEnv)
			next, stop := iter.Pull(env.body)
			procs[p] = coroutine{next: next, stop: stop, env: env}
		}
	}
	return c, procs
}

// body is a coroutine's whole life: run the process it has been handed,
// yield done, and park until handed the next one (or stopped).
func (e *procEnv) body(yield func(bool) bool) {
	e.yield = yield
	for {
		e.run()
		if !yield(true) {
			return
		}
	}
}

func (e *procEnv) run() {
	defer func() {
		// INVARIANT: only the errAborted sentinel is recovered; a protocol
		// bug's panic must surface, not be swallowed.
		if r := recover(); r != nil && r != any(errAborted) {
			panic(r)
		}
	}()
	if e.eng.aborting {
		return // handed over, never stepped: nothing to unwind
	}
	e.decision, e.err = e.eng.proto(e, e.eng.cfg.Inputs[e.id])
}
