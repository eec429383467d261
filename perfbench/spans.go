package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public entry point.
type span struct {
	ID     uint64 // unique within the run
	Trace  uint64 // one id per setup, request, or probe
	Parent uint64 // ID of the enclosing span; 0 for a root
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; they are written out when the run
// ends. A nil *tracer records nothing, which is how the untraced run runs.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) clock() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// open starts a span; close it with finish. On a nil tracer both are no-ops
// and the span's ID is 0.
func (t *tracer) open(name string, trace, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.newID(), Trace: trace, Parent: parent, Name: name, Start: t.clock()}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = t.clock()
	t.record(s)
}

// ref is the value of the request header that ties a handler span to the
// client span that sent the request: "trace.parent".
func (s span) ref() string {
	return strconv.FormatUint(s.Trace, 10) + "." + strconv.FormatUint(s.ID, 10)
}

func parseRef(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return trace, parent, err1 == nil && err2 == nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and a child's time outside its parent does not count at all.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [start, end) covered by the union of the
// children's intervals.
func covered(start, end int64, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	cur := start // everything before cur is already counted
	for _, c := range children {
		lo, hi := max(c.Start, cur), min(c.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.ID, 10)
		line = append(line, `,"trace":`...)
		line = strconv.AppendUint(line, s.Trace, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.Parent, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.Name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// now is the benchmark's one wall-clock read; every stopwatch starts here.
func now() time.Time {
	return time.Now() //parconn:allow norand benchmark stopwatch; no algorithmic randomness
}
