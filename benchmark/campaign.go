package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omicon/internal/distrib"
	"omicon/internal/journal"
	"omicon/internal/sim"
	"omicon/internal/torture"
	"omicon/internal/tournament"
	"omicon/internal/trace"
)

// Campaign sizes for a run of nominalSeconds on the 2-core reference box,
// and the fixed prefixes the traced passes cover.
const (
	tortureTrialsNominal  = 1000
	tortureTracedTrials   = 240 // five laps of the default 48-cell matrix
	tortureDeterminism    = 10
	tournamentPerCell     = 7 // trials per cell; 468 cells
	tournamentTracedCell  = 2
	sampleJobs            = 64  // jobs re-executed through sim.Run per pass
	verifiedSegments      = 256 // tournament trial segments put through trace.Verify
	echoKind              = "bench-echo/v1"
	echoDispatches        = 2000
	journalProbeAppends   = 2000
	workerHandshakeWindow = 10 * time.Second
)

func tortureTrials(seconds int) int           { return scaled(tortureTrialsNominal, seconds) }
func tournamentTrialsPerCell(seconds int) int { return scaled(tournamentPerCell, seconds) }

// execFunc is the shape of torture.Options.Remote and
// tournament.Options.Remote: the one hook through which both drivers
// execute a trial.
type execFunc = func(ctx context.Context, job torture.Job) (*torture.Outcome, error)

func localExec(_ context.Context, job torture.Job) (*torture.Outcome, error) {
	return torture.ExecuteJob(job)
}

// tally sits on the execute hook and notes what every trial cost, read
// off the outcome's transcript; it also keeps a spread sample of jobs and
// outcomes for the re-execution check. It is the one piece of benchmark
// code on the campaigns' end-to-end path, there because the drivers report
// rounds per cell at most, and never communication bits.
type tally struct {
	stride int

	mu     sync.Mutex
	trials map[int]trialNote
	jobs   map[int]torture.Job
	outs   map[int]*torture.Outcome
}

type trialNote struct {
	proto, adv string
	n, t       int
	cost
}

func newTally(trials int) *tally {
	return &tally{
		stride: max(1, trials/sampleJobs),
		trials: make(map[int]trialNote),
		jobs:   make(map[int]torture.Job),
		outs:   make(map[int]*torture.Outcome),
	}
}

func transcriptCost(tr *sim.Transcript) cost {
	c := cost{Rounds: int64(len(tr.Rounds))}
	for _, r := range tr.Rounds {
		c.CommBits += r.Bits
		c.Msgs += int64(r.Messages)
	}
	return c
}

func (t *tally) wrap(exec execFunc) execFunc {
	return func(ctx context.Context, job torture.Job) (*torture.Outcome, error) {
		oc, err := exec(ctx, job)
		if err != nil {
			return oc, err
		}
		note := trialNote{proto: job.Protocol, adv: job.Adversary, n: job.N, t: job.T, cost: transcriptCost(oc.Transcript)}
		t.mu.Lock()
		t.trials[job.Trial] = note
		if job.Trial%t.stride == 0 && len(t.jobs) < sampleJobs {
			t.jobs[job.Trial] = job
			t.outs[job.Trial] = oc
		}
		t.mu.Unlock()
		return oc, nil
	}
}

// rows folds the notes into one cost row per protocol/adversary pair.
// Outcomes carry no random-bit count, so that column stays 0.
func (t *tally) rows() []costRow {
	keys := make([]string, 0, len(t.trials))
	costs := make([]cost, 0, len(t.trials))
	for _, n := range t.trials {
		keys, costs = append(keys, n.proto+"/"+n.adv), append(costs, n.cost)
	}
	return cellRows(keys, costs)
}

// spanned records one span per executed trial under parent.
func spanned(rec *recorder, parent int, name string, exec execFunc) execFunc {
	return func(ctx context.Context, job torture.Job) (*torture.Outcome, error) {
		id := rec.begin(parent, fmt.Sprintf("trial-%d", job.Trial), name)
		oc, err := exec(ctx, job)
		rec.end(id)
		return oc, err
	}
}

// reexecJob runs a campaign trial through sim.Run directly, built from
// the exported constructors torture.ExecuteJob uses. The driver's own
// run error (a known-broken protocol tripping the engine) is part of the
// trial, not a failure of the re-execution, so only a missing result is.
func reexecJob(job torture.Job, lt *layerTrace) (*sim.Result, error) {
	spec, err := torture.FindProtocol(job.Protocol)
	if err != nil {
		return nil, err
	}
	advSpec, err := torture.FindAdversary(job.Adversary)
	if err != nil {
		return nil, err
	}
	proto, bound, err := spec.Build(job.N, job.T)
	if err != nil {
		return nil, err
	}
	adv := advSpec.Make(job.Base, job.N, job.T, job.Seed)
	res, err := sim.Run(sim.Config{
		N: job.N, T: job.T, Inputs: job.Inputs, Seed: job.Seed,
		Adversary: lt.adversary(adv), MaxRounds: bound + 64, Shards: job.Shards,
	}, lt.protocol(proto))
	if res == nil {
		return nil, err
	}
	return res, nil
}

// sampleResult is the re-execution of a tally's job sample.
type sampleResult struct {
	agg          *layerTrace
	cost         cost
	engineRounds float64
	wall         time.Duration
	mismatches   []string
}

// reexecSample runs the tally's sampled jobs through sim.Run — decorated
// when rec is set — and requires each to land on the rounds and
// communication bits the driver's transcript recorded.
func reexecSample(t *tally, rec *recorder) *sampleResult {
	sr := &sampleResult{}
	if rec != nil {
		sr.agg = newLayerTrace(rec, -1, "")
	}
	idx := make([]int, 0, len(t.jobs))
	for i := range t.jobs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	t0 := time.Now()
	for _, i := range idx {
		job := t.jobs[i]
		key := fmt.Sprintf("trial-%d %s/%s n=%d", i, job.Protocol, job.Adversary, job.N)
		var lt *layerTrace
		if rec != nil {
			lt = newLayerTrace(rec, rec.begin(-1, key, "reexec"), key)
		}
		res, err := reexecJob(job, lt)
		if lt != nil {
			rec.end(lt.parent)
		}
		if err != nil {
			sr.mismatches = append(sr.mismatches, fmt.Sprintf("%s: re-execution: %v", key, err))
			continue
		}
		want := t.trials[i].cost
		got := cost{Rounds: res.Metrics.Rounds, CommBits: res.Metrics.CommBits, RandBits: res.Metrics.RandomBits, Msgs: res.Metrics.Messages}
		if got.Rounds != want.Rounds || got.CommBits != want.CommBits {
			sr.mismatches = append(sr.mismatches, fmt.Sprintf("%s: re-execution cost %+v, driver %+v", key, got, want))
			continue
		}
		if lt != nil {
			sr.agg.absorb(lt)
		}
		sr.cost = sr.cost.add(got)
		sr.engineRounds += float64(res.Metrics.Rounds)
	}
	sr.wall = time.Since(t0)
	return sr
}

// buildSeconds estimates the time a pass spent in ProtoSpec.Build: each
// distinct (protocol, n, t) is built directly and timed, times the number
// of trials that built it.
func buildSeconds(t *tally) float64 {
	type inst struct {
		proto string
		n, t  int
	}
	uses := make(map[inst]int)
	for _, n := range t.trials {
		uses[inst{n.proto, n.n, n.t}]++
	}
	var total float64
	for in, k := range uses {
		spec, err := torture.FindProtocol(in.proto)
		if err != nil {
			continue
		}
		d := timeRepeated(nil, func() { _, _, _ = spec.Build(in.n, in.t) })
		total += d.Seconds() * float64(k)
	}
	return total
}

// --- torture ---------------------------------------------------------

// durableEnv is what torture-durable adds to the campaign: a trial
// journal and a distrib pool on a loopback port with worker goroutines of
// this process connected to it.
type durableEnv struct {
	dir         string
	pool        *distrib.Pool
	journalPath string
	journal     *journal.Journal
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup // the accept loop and the worker goroutines
}

var scratchSeq atomic.Int64

func newDurableEnv(rc *runCtx, workers int) (*durableEnv, error) {
	dir := filepath.Join(rc.outDir, fmt.Sprintf("scratch-%d-%d", os.Getpid(), scratchSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env := &durableEnv{dir: dir, journalPath: filepath.Join(dir, "torture.journal")}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	execs := distrib.StandardExecutors()
	execs.Register(echoKind, func(payload []byte) ([]byte, error) { return payload, nil })
	env.pool = distrib.NewPool(execs, distrib.PoolOptions{})
	env.workers.Add(1)
	go func() { // returns when pool.Close closes the listener
		defer env.workers.Done()
		env.pool.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	env.stopWorkers = cancel
	for w := 0; w < workers; w++ {
		env.workers.Add(1)
		go func(w int) {
			defer env.workers.Done()
			_ = distrib.RunWorker(ctx, ln.Addr().String(), execs, distrib.WorkerOptions{Name: fmt.Sprintf("bench-%d", w)})
		}(w)
	}
	if err := env.pool.AwaitWorkers(ctx, workers, workerHandshakeWindow); err != nil {
		env.close()
		return nil, err
	}
	if err := env.openJournal(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *durableEnv) openJournal() error {
	j, _, err := journal.Open(e.journalPath)
	if err != nil {
		return err
	}
	e.journal = j
	return nil
}

// freshJournal replaces the journal with an empty one, so a second pass
// executes its trials instead of replaying the first pass's.
func (e *durableEnv) freshJournal() error {
	if err := e.journal.Close(); err != nil {
		return err
	}
	if err := os.Remove(e.journalPath); err != nil {
		return err
	}
	return e.openJournal()
}

func (e *durableEnv) close() {
	if e.journal != nil {
		_ = e.journal.Close() // every pass synced it; the file is scratch
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.stopWorkers != nil {
		e.stopWorkers()
	}
	e.workers.Wait()
	_ = os.RemoveAll(e.dir)
}

func tortureOptions(seed uint64, trials, workers int, exec execFunc, j *journal.Journal, log *bytes.Buffer) torture.Options {
	return torture.Options{
		Trials: trials, Seed: derive(seed, "torture", 0),
		DeterminismEvery: tortureDeterminism,
		Workers:          workers, Remote: exec, Journal: j, Log: log,
	}
}

// runTorture runs the campaign and packs report, log and tally into a
// pass result. A trial with an oracle violation is a failed op.
func runTorture(seed uint64, trials, workers int, exec execFunc, j *journal.Journal) (*passResult, *torture.Report, *tally) {
	t := newTally(trials)
	var log bytes.Buffer
	pr := &passResult{ops: trials}
	rep, err := torture.Run(tortureOptions(seed, trials, workers, t.wrap(exec), j, &log))
	if err != nil {
		pr.failAll(err)
		return pr, nil, t
	}
	for _, f := range rep.Failures {
		pr.failures = append(pr.failures, fmt.Sprintf("torture %s/%s n=%d seed=%d: %v", f.Protocol, f.Adversary, f.N, f.Seed, f.Violations))
	}
	pr.rows = t.rows()
	pr.digest = digestOf([]byte(rep.Summary()), log.Bytes())
	return pr, rep, t
}

// replayTorture resumes the campaign from its closed journal: every
// trial must replay (none execute) and the report and log must come out
// byte-identical. It returns the time of journal.Open and of the replay.
func replayTorture(env *durableEnv, seed uint64, trials, workers int, want string) (open, replay time.Duration, failures []string) {
	if err := env.journal.Close(); err != nil {
		return 0, 0, []string{fmt.Sprintf("journal close: %v", err)}
	}
	t0 := time.Now()
	err := env.openJournal()
	open = time.Since(t0)
	if err != nil {
		return open, 0, []string{fmt.Sprintf("journal reopen: %v", err)}
	}
	var executed atomic.Int64
	exec := func(ctx context.Context, job torture.Job) (*torture.Outcome, error) {
		executed.Add(1)
		return localExec(ctx, job)
	}
	var log bytes.Buffer
	t0 = time.Now()
	rep, err := torture.Run(tortureOptions(seed, trials, workers, exec, env.journal, &log))
	replay = time.Since(t0)
	switch {
	case err != nil:
		failures = append(failures, fmt.Sprintf("journal replay: %v", err))
	case executed.Load() != 0 || rep.Resumed != trials:
		failures = append(failures, fmt.Sprintf("journal replay executed %d trials and resumed %d of %d", executed.Load(), rep.Resumed, trials))
	case digestOf([]byte(rep.Summary()), log.Bytes()) != want:
		failures = append(failures, "journal replay produced a different report or log")
	}
	return open, replay, failures
}

type tortureInstance struct {
	rc     *runCtx
	trials int
	env    *durableEnv // nil for torture-inproc
	tally  *tally
}

func setupTorture(durable bool) func(rc *runCtx) (instance, error) {
	return func(rc *runCtx) (instance, error) {
		in := &tortureInstance{rc: rc, trials: tortureTrials(rc.seconds)}
		// Registry resolution, as torture.Run will do it.
		if len(torture.DefaultProtocols()) == 0 || len(torture.DefaultAdversaries()) == 0 {
			return nil, fmt.Errorf("torture: empty default matrix")
		}
		if durable {
			env, err := newDurableEnv(rc, rc.nproc)
			if err != nil {
				return nil, err
			}
			in.env = env
		}
		if err := warmUp(0); err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}
}

func (in *tortureInstance) exec() execFunc {
	if in.env != nil {
		return distrib.TortureRemote(in.env.pool)
	}
	return localExec
}

// journal is the campaign's journal; nil for torture-inproc.
func (in *tortureInstance) journal() *journal.Journal {
	if in.env == nil {
		return nil
	}
	return in.env.journal
}

func (in *tortureInstance) pass() (*passResult, error) {
	pr, _, t := runTorture(in.rc.seed, in.trials, in.rc.nproc, in.exec(), in.journal())
	in.tally = t
	if in.env != nil && len(pr.failures) == 0 {
		_, _, failures := replayTorture(in.env, in.rc.seed, in.trials, in.rc.nproc, pr.digest)
		pr.failures = append(pr.failures, failures...)
	}
	return pr, nil
}

func (in *tortureInstance) verify(*passResult) []string {
	failures := reexecSample(in.tally, nil).mismatches
	if in.env != nil {
		failures = append(failures, fallbackFailures(in.env.pool)...)
	}
	return failures
}

// fallbackFailures reports dispatches that did not run on a worker: a
// pass with any measured the pool's fallback paths, not remote dispatch.
func fallbackFailures(p *distrib.Pool) []string {
	if s := p.Stats(); s.Redispatched != 0 || s.LocalRuns != 0 || s.Quarantined != 0 {
		return []string{fmt.Sprintf("distrib pool fell back: %d re-dispatched, %d local, %d quarantined", s.Redispatched, s.LocalRuns, s.Quarantined)}
	}
	return nil
}

func (in *tortureInstance) close() {
	if in.env != nil {
		in.env.close()
	}
}

// tracedCampaign is the shape the two campaign drivers' traced passes
// share. run is called twice over the same prefix of trials: undecorated
// on every core (the base of partrial.speedup), then — after between, if
// set — on one core with a span per executed trial under a "<layer>.pass"
// span; both must produce the same artifact. Then the tally's job sample
// is re-executed through sim.Run with decorators. run reports whether the
// driver returned a report. The process is left pinned to one core: what
// the caller measures next belongs to the traced pass too.
func tracedCampaign(rc *runCtx, m map[string]float64, layer string, exec execFunc, between func() error,
	run func(workers int, exec execFunc) (*passResult, *tally, bool)) (*passResult, *tally, error) {
	t0 := time.Now()
	par, _, _ := run(rc.nproc, exec)
	parWall := time.Since(t0)

	runtime.GOMAXPROCS(1)
	if between != nil {
		if err := between(); err != nil {
			return nil, nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passID := rc.rec.begin(-1, "", layer+".pass")
	t0 = time.Now()
	pr, t, ok := run(1, spanned(rc.rec, passID, layer+".execute", exec))
	wall := time.Since(t0)
	rc.rec.end(passID)
	runtime.ReadMemStats(&ms1)
	if !ok || pr.allFailed {
		return pr, t, nil
	}
	if par.digest != pr.digest {
		pr.failures = append(pr.failures, layer+": artifacts differ between the parallel pass and the traced pass")
	}

	sr := reexecSample(t, rc.rec)
	pr.failures = append(pr.failures, sr.mismatches...)
	layerMetrics(m, sr.agg, sr.wall, sr.cost, sr.engineRounds)
	m["traced.wall_s"] = wall.Seconds()
	m["sim.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["partrial.speedup"] = wall.Seconds() / parWall.Seconds()
	m["torture.build_s"] = buildSeconds(t)
	// The pass span's children are the execute spans, so its self time is
	// what the serial commit phase took.
	m[layer+".execute_s"] = totalTimes(rc.rec.spans)[layer+".execute"].Seconds()
	m[layer+".commit_s"] = selfTimes(rc.rec.spans)[layer+".pass"].Seconds()
	return pr, t, nil
}

// layersTorture is the traced pass over the first tortureTracedTrials
// trials.
func layersTorture(durable bool) func(rc *runCtx) (map[string]float64, *passResult, error) {
	return func(rc *runCtx) (map[string]float64, *passResult, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		m := make(map[string]float64)
		inst, err := setupTorture(durable)(rc)
		if err != nil {
			return nil, nil, err
		}
		in := inst.(*tortureInstance)
		defer in.close()
		const trials = tortureTracedTrials

		var between func() error
		if durable { // the second pass must execute its trials, not replay the first's
			between = in.env.freshJournal
		}
		var rep *torture.Report
		pr, t, err := tracedCampaign(rc, m, "torture", in.exec(), between,
			func(workers int, exec execFunc) (*passResult, *tally, bool) {
				var pr *passResult
				var t *tally
				pr, rep, t = runTorture(rc.seed, trials, workers, exec, in.journal())
				return pr, t, rep != nil
			})
		if err != nil || rep == nil || pr.allFailed {
			return m, pr, err
		}
		var trialMs []float64
		for _, s := range rc.rec.spans {
			if s.Name == "torture.execute" {
				trialMs = append(trialMs, float64(s.End-s.Start)/1e6)
			}
		}
		m["torture.trial_p50_ms"] = median(trialMs)
		if topPercentile(len(trialMs)) >= 95 {
			m["torture.trial_p95_ms"] = percentile(trialMs, 95)
		}
		m["torture.determinism_reruns"] = float64(rep.DeterminismChecks)
		if durable {
			pr.failures = append(pr.failures, durableLayers(m, rc, in.env, t, trials, pr.digest)...)
		}
		return m, pr, nil
	}
}

// durableLayers measures what only torture-durable uses: the journal
// (file size per record, a direct append probe, reopen and full replay)
// and the dispatch path (JSON sizes, an echo round trip at the median job
// size, the pool's fallback counters).
func durableLayers(m map[string]float64, rc *runCtx, env *durableEnv, t *tally, trials int, digest string) []string {
	var failures []string
	if st, err := os.Stat(env.journalPath); err == nil {
		m["journal.bytes_per_op"] = float64(st.Size()) / float64(trials)
	}
	open, replay, rf := replayTorture(env, rc.seed, trials, 1, digest)
	failures = append(failures, rf...)
	m["journal.open_s"] = open.Seconds()
	if replay > 0 {
		m["journal.replay_ops_per_s"] = float64(trials) / replay.Seconds()
	}

	// Append probe: records of the campaign's mean size into a scratch
	// journal with the default sync batching.
	probePath := filepath.Join(env.dir, "probe.journal")
	if probe, _, err := journal.Open(probePath); err == nil {
		payload := json.RawMessage(`"` + string(bytes.Repeat([]byte("x"), max(1, int(m["journal.bytes_per_op"])-96))) + `"`)
		t0 := time.Now()
		for i := 0; i < journalProbeAppends && err == nil; i++ {
			err = probe.Append(journal.Key("bench-probe", i), payload)
		}
		if err == nil {
			err = probe.Sync()
		}
		m["journal.append_us"] = float64(time.Since(t0).Microseconds()) / journalProbeAppends
		if cerr := probe.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("journal append probe: %v", err))
		}
	} else {
		failures = append(failures, fmt.Sprintf("journal append probe: %v", err))
	}

	var jobSizes, outSizes []float64
	for i, job := range t.jobs {
		jb, jerr := json.Marshal(job)
		ob, oerr := json.Marshal(t.outs[i])
		if jerr != nil || oerr != nil {
			continue
		}
		jobSizes, outSizes = append(jobSizes, float64(len(jb))), append(outSizes, float64(len(ob)))
	}
	m["distrib.job_bytes"] = median(jobSizes)
	m["distrib.result_bytes"] = median(outSizes)

	payload := bytes.Repeat([]byte("x"), max(1, int(median(jobSizes))))
	us := make([]float64, 0, echoDispatches)
	for i := 0; i < echoDispatches; i++ {
		t0 := time.Now()
		res, err := env.pool.Execute(context.Background(), fmt.Sprintf("echo-%d", i), echoKind, payload)
		if err != nil || len(res.Payload) != len(payload) {
			failures = append(failures, fmt.Sprintf("echo dispatch %d: %v", i, err))
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["distrib.dispatch_us_p50"] = median(us)
	if topPercentile(len(us)) >= 99 {
		m["distrib.dispatch_us_p99"] = percentile(us, 99)
	}
	s := env.pool.Stats()
	m["distrib.redispatched"] = float64(s.Redispatched)
	m["distrib.local_runs"] = float64(s.LocalRuns)
	return append(failures, fallbackFailures(env.pool)...)
}

// --- tournament ------------------------------------------------------

// segmentSink is the in-memory sink tournament-zoo hands to
// Options.Trace. It counts events, reads each trial's final costs off
// its exec-end event (segments arrive in trial order: the driver emits a
// trial's captured events at its serial commit), and keeps the first
// verifiedSegments segments whole for trace.Verify. With timed set it
// also clocks itself, which is what trace.emit_s reports.
type segmentSink struct {
	timed bool

	mu     sync.Mutex
	events int64
	emit   time.Duration
	ends   []cost
	head   []trace.Event
}

func (s *segmentSink) Emit(e trace.Event) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	s.mu.Lock()
	s.events++
	if len(s.ends) < verifiedSegments {
		s.head = append(s.head, e)
	}
	if e.Kind == trace.KindExecEnd {
		s.ends = append(s.ends, cost{Rounds: e.Rounds, CommBits: e.CommBits, RandBits: e.RandomBits, Msgs: e.Messages})
	}
	if s.timed {
		s.emit += time.Since(t0)
	}
	s.mu.Unlock()
}

// runTournament runs the full protocol x adversary matrix, perCell trials
// per cell, and packs the report into a pass result. An unexpected loss
// is a failed op; losses of known-broken protocols are the separation
// exhibits doing their job.
func runTournament(seed uint64, perCell, workers int, exec execFunc, sink *segmentSink) (*passResult, *tournament.Report, *tally) {
	trials := tournamentCells() * perCell
	pr := &passResult{ops: trials}
	t := newTally(trials)
	var log bytes.Buffer
	rep, err := tournament.Run(tournament.Options{
		TrialsPerCell: perCell, Seed: derive(seed, "tournament", 0),
		Workers: workers, Remote: t.wrap(exec), Trace: trace.New(sink), Log: &log,
	})
	if err != nil {
		pr.failAll(err)
		return pr, nil, t
	}
	if rep.Trials != trials {
		pr.failAll(fmt.Errorf("tournament ran %d trials, the benchmark counted %d", rep.Trials, trials))
		return pr, nil, t
	}
	for i := 0; i < rep.UnexpectedLosses; i++ {
		pr.failures = append(pr.failures, fmt.Sprintf("tournament: unexpected loss %d of %d (log: %s)", i+1, rep.UnexpectedLosses, firstLine(log.Bytes())))
	}
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		pr.failAll(err)
		return pr, nil, t
	}
	pr.digest = digestOf(out.Bytes())

	// The trace path and the transcript path must tell the same story.
	if len(sink.ends) != trials {
		pr.failAll(fmt.Errorf("tournament: %d exec-end events for %d trials", len(sink.ends), trials))
		return pr, rep, t
	}
	keys := make([]string, trials)
	costs := make([]cost, trials)
	for i, end := range sink.ends {
		note := t.trials[i]
		if note.Rounds != end.Rounds || note.CommBits != end.CommBits {
			pr.failures = append(pr.failures, fmt.Sprintf("tournament trial %d: trace says %+v, transcript %+v", i, end, note.cost))
		}
		keys[i], costs[i] = note.proto+"/"+note.adv, note.cost
		costs[i].RandBits = end.RandBits
	}
	pr.rows = cellRows(keys, costs)
	if segs, err := trace.Verify(sink.head); err != nil {
		pr.failures = append(pr.failures, fmt.Sprintf("trace.Verify: %v", err))
	} else if want := min(verifiedSegments, trials); len(segs) != want {
		pr.failures = append(pr.failures, fmt.Sprintf("trace.Verify: %d segments, want %d", len(segs), want))
	}
	return pr, rep, t
}

// tournamentCells counts the matrix tournament.Run will enumerate, the
// way it enumerates it: every protocol x adversary x registered size x
// budget in {1, CapT}. runTournament holds the driver's count against it.
func tournamentCells() int {
	cells := 0
	for _, p := range torture.Protocols() {
		for _, n := range p.Sizes {
			if torture.CapT(p, n) > 1 {
				cells += 2
			} else {
				cells++
			}
		}
	}
	return cells * len(torture.Adversaries())
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

type tournamentInstance struct {
	rc      *runCtx
	perCell int
	tally   *tally
}

func setupTournament(rc *runCtx) (instance, error) {
	if len(torture.Protocols()) == 0 || len(torture.Adversaries()) == 0 {
		return nil, fmt.Errorf("tournament: empty registry")
	}
	if err := warmUp(0); err != nil {
		return nil, err
	}
	return &tournamentInstance{rc: rc, perCell: tournamentTrialsPerCell(rc.seconds)}, nil
}

func (in *tournamentInstance) pass() (*passResult, error) {
	pr, _, t := runTournament(in.rc.seed, in.perCell, in.rc.nproc, localExec, &segmentSink{})
	in.tally = t
	return pr, nil
}

func (in *tournamentInstance) verify(*passResult) []string {
	return reexecSample(in.tally, nil).mismatches
}

func (in *tournamentInstance) close() {}

// layersTournament is the traced pass over tournamentTracedCell trials
// per cell, with the sink clocked.
func layersTournament(rc *runCtx) (map[string]float64, *passResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := make(map[string]float64)
	if err := warmUp(0); err != nil {
		return nil, nil, err
	}
	var rep *tournament.Report
	var sink *segmentSink
	pr, _, err := tracedCampaign(rc, m, "tournament", localExec, nil,
		func(workers int, exec execFunc) (*passResult, *tally, bool) {
			sink = &segmentSink{timed: workers == 1} // the one-worker call is the traced one
			var pr *passResult
			var t *tally
			pr, rep, t = runTournament(rc.seed, tournamentTracedCell, workers, exec, sink)
			return pr, t, rep != nil
		})
	if err != nil || rep == nil || pr.allFailed {
		return m, pr, err
	}
	m["model.rand_bits"] = float64(sumRows(pr.rows).RandBits)
	m["tournament.cells"] = float64(len(rep.Cells))
	m["trace.events"] = float64(sink.events)
	m["trace.emit_s"] = sink.emit.Seconds()
	m["trace.events_per_op"] = float64(sink.events) / float64(max(pr.ops, 1))
	return m, pr, nil
}
