package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL streams events as JSON lines. Emissions are serialized with a
// mutex; call Flush (or Close) before reading the underlying writer.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONL wraps w. If w is also an io.Closer, Close closes it.
func NewJSONL(w io.Writer) *JSONL {
	s := &JSONL{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. Encoding errors are latched and reported by Close.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err == nil {
		b = append(b, '\n')
		_, err = s.w.Write(b)
	}
	s.err = err
}

// Flush drains the buffer to the underlying writer.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Close flushes and closes the underlying writer, returning the first
// emission, flush or close error.
func (s *JSONL) Close() error {
	ferr := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// Capture is an unbounded in-memory sink recording every event in emission
// order. It is how parallel trial runners keep campaign traces coherent:
// each trial traces into its own Capture, and the buffers are replayed into
// the campaign sink in trial order, so the stream keeps one non-interleaved
// exec segment per trial regardless of how many workers ran them.
type Capture struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Capture) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns the recorded events in emission order. The slice is the
// live buffer; read it only after the traced execution has quiesced.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Multi fans one event stream out to several sinks.
type Multi []Sink

// MultiSink combines sinks, skipping nils; it returns nil when none remain.
func MultiSink(sinks ...Sink) Sink {
	var out Multi
	for _, s := range sinks {
		if s != nil {
			if t, ok := s.(*Tracer); ok && !t.Enabled() {
				continue
			}
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// Emit implements Sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// ReadAll decodes a JSONL event stream. Blank lines are skipped; a
// malformed line is an error naming its line number.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFile decodes the JSONL trace at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}
