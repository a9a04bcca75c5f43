package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"omicon/internal/sim"
	"omicon/internal/wire"
)

// Every per-layer number is taken from outside the program: the
// decorators below wrap the exported sim.Env, sim.Adversary and
// sim.Protocol values a caller hands to sim.Run, and time the calls that
// cross them. They are installed only in the traced pass, which pins
// GOMAXPROCS to 1 so that at most one of protocol step, adversary step
// and engine runs at any instant and their times add up to the wall.

// span is one recorded interval: what ran, for which op, caused by which
// enclosing span. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. Spans are recorded
// at layer boundaries that occur at most a few thousand times per run
// (an op, a driver's execute hook, an adversary step); the millions of
// per-process protocol steps are accumulated by stepClock instead.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; a nil recorder records nothing.
func (r *recorder) begin(parent int, op, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// totalTimes returns the summed duration per span name.
func totalTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stepClock is the sim.Env decorator of one process: it charges the time
// between an Exchange return and the next Exchange call — the process's
// local computation phase — to the protocol, keyed by the innermost span
// the protocol has open. Only its own process touches it. The charge on
// the Exchange path is two clock reads and two additions through a
// pointer; the map is consulted only when a span opens.
type stepClock struct {
	sim.Env
	last   time.Time
	total  time.Duration
	cur    *time.Duration   // accumulator of the innermost open span
	open   []*time.Duration // accumulators of the enclosing spans
	bySpan map[string]*time.Duration
}

func newStepClock(env sim.Env) *stepClock {
	c := &stepClock{Env: env, bySpan: make(map[string]*time.Duration)}
	c.cur = c.accumulator("unspanned")
	c.last = time.Now()
	return c
}

func (c *stepClock) accumulator(name string) *time.Duration {
	acc := c.bySpan[name]
	if acc == nil {
		acc = new(time.Duration)
		c.bySpan[name] = acc
	}
	return acc
}

func (c *stepClock) charge(now time.Time) {
	d := now.Sub(c.last)
	c.last = now
	c.total += d
	*c.cur += d
}

func (c *stepClock) Exchange(out []sim.Message) []sim.Message {
	c.charge(time.Now())
	in := c.Env.Exchange(out)
	c.last = time.Now()
	return in
}

func (c *stepClock) Span(name string) func() {
	closeInner := c.Env.Span(name)
	c.charge(time.Now())
	c.open = append(c.open, c.cur)
	c.cur = c.accumulator(name)
	return func() {
		c.charge(time.Now())
		c.cur = c.open[len(c.open)-1]
		c.open = c.open[:len(c.open)-1]
		closeInner()
	}
}

// payloadCap bounds the payloads retained for the wire.BitLen
// measurement; perRoundPayloads spreads them over the whole execution
// instead of filling the cap from the first rounds.
const (
	payloadCap       = 65536
	perRoundPayloads = 64
)

// layerTrace accumulates one decorated execution's (or one sample of
// executions') layer times and counts.
type layerTrace struct {
	rec    *recorder
	parent int
	op     string

	mu        sync.Mutex // guards the protocol totals, merged once per process
	protoStep time.Duration
	bySpan    map[string]time.Duration

	advStep     time.Duration
	bookkeeping time.Duration // the adversary decorator's own copying, not a layer
	advSteps    int64
	drops       int64
	corruptions int64

	payloads []wire.Marshaler
	// The largest outbox seen, with the action taken on it and the
	// corrupted set at that point: the input of the sort and legality
	// measurements.
	peak      []sim.Message
	peakAct   sim.Action
	peakRound int
	peakCorr  []int
	n, t      int // size and budget of the execution the peak came from
}

func newLayerTrace(rec *recorder, parent int, op string) *layerTrace {
	return &layerTrace{rec: rec, parent: parent, op: op, bySpan: make(map[string]time.Duration)}
}

// absorb adds another execution's totals to lt, keeping the larger peak
// and payloads up to the cap.
func (lt *layerTrace) absorb(o *layerTrace) {
	lt.protoStep += o.protoStep
	for name, v := range o.bySpan {
		lt.bySpan[name] += v
	}
	lt.advStep += o.advStep
	lt.bookkeeping += o.bookkeeping
	lt.advSteps += o.advSteps
	lt.drops += o.drops
	lt.corruptions += o.corruptions
	if room := payloadCap - len(lt.payloads); room > 0 {
		lt.payloads = append(lt.payloads, o.payloads[:min(room, len(o.payloads))]...)
	}
	if len(o.peak) > len(lt.peak) {
		lt.peak, lt.peakAct, lt.peakRound, lt.peakCorr, lt.n, lt.t = o.peak, o.peakAct, o.peakRound, o.peakCorr, o.n, o.t
	}
}

// protocol decorates proto so every process runs on a stepClock. A nil
// layerTrace decorates nothing.
func (lt *layerTrace) protocol(proto sim.Protocol) sim.Protocol {
	if lt == nil {
		return proto
	}
	return func(env sim.Env, input int) (int, error) {
		c := newStepClock(env)
		d, err := proto(c, input)
		c.charge(time.Now())
		lt.mu.Lock()
		lt.protoStep += c.total
		for name, v := range c.bySpan {
			lt.bySpan[name] += *v
		}
		lt.mu.Unlock()
		return d, err
	}
}

// adversary decorates adv with a step timer. sim.NoFaults is returned as
// it is: the engine recognises it by type and skips sort, View and
// legality, and a wrapper would turn that fast path off.
func (lt *layerTrace) adversary(adv sim.Adversary) sim.Adversary {
	if lt == nil || adv == nil {
		return adv
	}
	if _, benign := adv.(sim.NoFaults); benign {
		return adv
	}
	return &advClock{inner: adv, lt: lt}
}

type advClock struct {
	inner sim.Adversary
	lt    *layerTrace
	seen  []bool // processes this execution already counted as corrupted
}

func (a *advClock) Name() string { return a.inner.Name() }

func (a *advClock) Step(v *sim.View) sim.Action {
	lt := a.lt
	id := lt.rec.begin(lt.parent, lt.op, "adversary.step")
	t0 := time.Now()
	act := a.inner.Step(v)
	t1 := time.Now()
	lt.rec.end(id)
	lt.advStep += t1.Sub(t0)
	lt.advSteps++
	lt.drops += int64(len(act.Drop))
	if a.seen == nil {
		a.seen = make([]bool, v.N)
	}
	for _, p := range act.Corrupt {
		if p >= 0 && p < v.N && !v.Corrupted[p] && !a.seen[p] {
			a.seen[p] = true
			lt.corruptions++
		}
	}
	// Payloads are immutable once sent, so they may be kept; the View's
	// slices are engine-owned and must be copied.
	if room := payloadCap - len(lt.payloads); room > 0 && len(v.Outbox) > 0 {
		stride := len(v.Outbox)/perRoundPayloads + 1
		for i := 0; i < len(v.Outbox) && room > 0; i += stride {
			if p := v.Outbox[i].Payload; p != nil {
				lt.payloads = append(lt.payloads, p)
				room--
			}
		}
	}
	if len(v.Outbox) > len(lt.peak) {
		lt.peak = append(lt.peak[:0], v.Outbox...)
		lt.peakAct = sim.Action{
			Corrupt: append([]int(nil), act.Corrupt...),
			Drop:    append([]int(nil), act.Drop...),
		}
		lt.peakRound, lt.n, lt.t = v.Round, v.N, v.T
		lt.peakCorr = lt.peakCorr[:0]
		for p, c := range v.Corrupted {
			if c {
				lt.peakCorr = append(lt.peakCorr, p)
			}
		}
	}
	lt.bookkeeping += time.Since(t1)
	return act
}

// timeRepeated calls f until it has run for at least 30ms in total (and
// at least 5 times), and returns the median duration of one call. prep
// runs before each call, untimed.
func timeRepeated(prep, f func()) time.Duration {
	var ds []float64
	var total time.Duration
	for len(ds) < 5 || (total < 30*time.Millisecond && len(ds) < 200) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}

// sortNsPerMsg times sim.Orderer.Sort on a copy of the recorded peak
// outbox. The copy is already in canonical order (that is how a View
// carries it), so the counting passes do the same work but scatter
// sequentially: read it as the floor of the engine's sort cost.
func (lt *layerTrace) sortNsPerMsg() float64 {
	if len(lt.peak) < 2 {
		return 0
	}
	buf := make([]sim.Message, len(lt.peak))
	var o sim.Orderer[sim.Message]
	d := timeRepeated(func() { copy(buf, lt.peak) }, func() { o.Sort(buf, lt.n) })
	return float64(d.Nanoseconds()) / float64(len(lt.peak))
}

// legalityNsPerMsg times sim.Legality.CheckInto on the recorded peak
// outbox and the action the adversary took on it.
func (lt *layerTrace) legalityNsPerMsg() float64 {
	if len(lt.peak) == 0 {
		return 0
	}
	l := sim.NewLegality(lt.n, lt.t)
	dropped := make([]bool, len(lt.peak))
	if _, err := l.CheckInto(lt.peakRound, lt.peak, sim.Action{Corrupt: lt.peakCorr}, dropped); err != nil {
		return 0
	}
	if _, err := l.CheckInto(lt.peakRound, lt.peak, lt.peakAct, dropped); err != nil {
		return 0
	}
	d := timeRepeated(nil, func() {
		// Checked legal just above; re-corruption is tolerated, so every
		// repetition does the same work.
		_, _ = l.CheckInto(lt.peakRound, lt.peak, lt.peakAct, dropped)
	})
	return float64(d.Nanoseconds()) / float64(len(lt.peak))
}

// bitlenSink keeps the compiler from discarding the measured call.
var bitlenSink int64

// bitlenNsPerPayload times wire.BitLen over the retained payloads.
func (lt *layerTrace) bitlenNsPerPayload() float64 {
	if len(lt.payloads) == 0 {
		return 0
	}
	d := timeRepeated(nil, func() {
		var sum int64
		for _, p := range lt.payloads {
			sum += wire.BitLen(p)
		}
		bitlenSink = sum
	})
	return float64(d.Nanoseconds()) / float64(len(lt.payloads))
}

// spanNames lists the protocol spans seen, ascending.
func (lt *layerTrace) spanNames() []string {
	names := make([]string, 0, len(lt.bySpan))
	for name := range lt.bySpan {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
