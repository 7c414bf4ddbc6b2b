// Self-tracing: the Recorder can emit a Chrome trace-event JSON stream
// (the format chrome://tracing and Perfetto load) showing the engine's
// own concurrency — kernel execution on one lane overlapped with the
// analysis goroutine on the other. Lanes are thread IDs in the trace;
// DeclareLane names them with "M" metadata events so the viewer shows
// "kernel execution" and "analysis" instead of bare numbers.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The engine's trace lanes: the kernel-execution goroutine and the
// profiler's analysis goroutine.
const (
	LaneKernel   = 0
	LaneAnalysis = 1
)

// Event is one Chrome trace event. Ph "X" is a complete event (TS+Dur),
// "i" an instant, "M" metadata (thread_name). Timestamps are in
// microseconds from the recorder's start, per the trace-event spec.
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// S is the instant-event scope ("t" thread, "p" process, "g" global).
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceSink consumes trace events. Emit must be safe for concurrent use:
// spans stop on the kernel goroutine and on every analysis goroutine.
type TraceSink interface {
	Emit(Event)
}

// Ring capacities of a Buffer made by NewRing: ringCap events, plus up to
// metaCap "M" metadata events kept apart so the process and lane names
// outlive the spans they label. A vxprofd session of a Rodinia app at
// scale 16 emits 22 events, 3 of them metadata, so the ring shows the
// last ~860 such sessions and their names.
const (
	ringCap = 1 << 14
	metaCap = 1 << 12
)

// Buffer is an in-memory TraceSink that serializes to the Chrome
// trace-event JSON object format ({"traceEvents": [...]}). NewBuffer
// keeps every event, for a run that ends; NewRing bounds it for a
// process that does not.
type Buffer struct {
	mu      sync.Mutex
	bounded bool
	meta    ring // metadata events, bounded buffers only
	events  ring
	dropped uint64
}

// ring holds events in emission order. Below its capacity it grows on
// demand; at it each push overwrites the oldest event.
type ring struct {
	events []Event
	head   int // index of the oldest event once the ring is full
}

// push appends ev, overwriting the oldest event once the ring holds
// limit events (limit 0: unbounded). It reports whether one was dropped.
func (r *ring) push(ev Event, limit int) bool {
	if limit == 0 || len(r.events) < limit {
		r.events = append(r.events, ev)
		return false
	}
	r.events[r.head] = ev
	r.head = (r.head + 1) % limit
	return true
}

// appendTo appends the ring's events to out, oldest first.
func (r *ring) appendTo(out []Event) []Event {
	out = append(out, r.events[r.head:]...)
	return append(out, r.events[:r.head]...)
}

// NewBuffer creates an empty trace buffer that keeps every event.
func NewBuffer() *Buffer { return &Buffer{} }

// NewRing creates an empty trace buffer of bounded size for a
// long-lived process: it keeps the newest ringCap events and, apart from
// them, the newest metaCap metadata events, and counts every event it
// overwrites in Dropped.
func NewRing() *Buffer { return &Buffer{bounded: true} }

// Emit implements TraceSink.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	var drop bool
	switch {
	case !b.bounded:
		b.events.push(ev, 0)
	case ev.Ph == "M":
		drop = b.meta.push(ev, metaCap)
	default:
		drop = b.events.push(ev, ringCap)
	}
	if drop {
		b.dropped++
	}
	b.mu.Unlock()
}

// Events returns a copy of the buffered events in emission order,
// oldest first; a ring lists its metadata events first.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.meta.events)+len(b.events.events))
	return b.events.appendTo(b.meta.appendTo(out))
}

// Dropped returns how many events a ring has overwritten (always 0 for
// NewBuffer).
func (b *Buffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// WriteJSON serializes the buffer as a Chrome trace-event JSON object,
// loadable in Perfetto or chrome://tracing.
func (b *Buffer) WriteJSON(w io.Writer) error {
	events := b.Events()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: events}); err != nil {
		return fmt.Errorf("telemetry: encode trace: %w", err)
	}
	return nil
}

// ProcessSink wraps a TraceSink, rewriting every event's PID and naming
// the process. Recorders hardcode PID 1 — right for one run per trace —
// so a multi-tenant service funnels each session's recorder through its
// own ProcessSink into one shared Buffer: sessions render as separate
// processes in Perfetto, each with its own named lanes.
func ProcessSink(sink TraceSink, pid int, name string) TraceSink {
	s := &processSink{sink: sink, pid: pid}
	if name != "" {
		sink.Emit(Event{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	return s
}

type processSink struct {
	sink TraceSink
	pid  int
}

// Emit implements TraceSink.
func (s *processSink) Emit(ev Event) {
	ev.PID = s.pid
	s.sink.Emit(ev)
}

// SetTrace attaches (or, with nil, detaches) the recorder's trace sink.
// Span and Instant no-op while no sink is attached; attach before the
// activity of interest. Safe on a nil recorder.
func (r *Recorder) SetTrace(sink TraceSink) {
	if r == nil {
		return
	}
	if sink == nil {
		r.trace.Store(nil)
		return
	}
	r.trace.Store(&sinkBox{sink: sink})
}

// sink returns the attached TraceSink, or nil.
func (r *Recorder) sink() TraceSink {
	if r == nil {
		return nil
	}
	if box := r.trace.Load(); box != nil {
		return box.sink
	}
	return nil
}

// DeclareLane names a trace lane (thread ID). The name is replayed as a
// thread_name metadata event to any sink attached now or later, so lanes
// declared at Attach appear even when the sink arrives afterwards.
func (r *Recorder) DeclareLane(tid int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lanes[tid] = name
	r.mu.Unlock()
	if s := r.sink(); s != nil {
		s.Emit(metaEvent(tid, name))
	}
}

// emitLaneMeta replays every declared lane's metadata into sink.
func (r *Recorder) emitLaneMeta(sink TraceSink) {
	r.mu.Lock()
	lanes := make(map[int]string, len(r.lanes))
	for tid, name := range r.lanes {
		lanes[tid] = name
	}
	r.mu.Unlock()
	// Deterministic order: by lane ID.
	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		sink.Emit(metaEvent(tid, lanes[tid]))
	}
}

// AttachTrace couples SetTrace with a replay of the declared lane names,
// the call sites use when the sink is supplied after probes exist.
func (r *Recorder) AttachTrace(sink TraceSink) {
	if r == nil || sink == nil {
		return
	}
	r.SetTrace(sink)
	r.emitLaneMeta(sink)
}

func metaEvent(tid int, name string) Event {
	return Event{
		Name: "thread_name", Ph: "M", PID: 1, TID: tid,
		Args: map[string]any{"name": name},
	}
}

// Span is one in-flight trace slice. The zero Span (no sink) no-ops.
type Span struct {
	r     *Recorder
	sink  TraceSink
	name  string
	cat   string
	tid   int
	start time.Time
}

// Span opens a complete-event slice on lane tid. When the recorder is
// nil or no sink is attached, the returned Span is inert and the clock
// is never read.
func (r *Recorder) Span(tid int, cat, name string) Span {
	s := r.sink()
	if s == nil {
		return Span{}
	}
	return Span{r: r, sink: s, name: name, cat: cat, tid: tid, start: time.Now()}
}

// End closes the span, emitting a ph "X" complete event.
func (sp Span) End() {
	if sp.sink == nil {
		return
	}
	now := time.Now()
	sp.sink.Emit(Event{
		Name: sp.name, Cat: sp.cat, Ph: "X",
		TS:  micros(sp.start.Sub(sp.r.start)),
		Dur: micros(now.Sub(sp.start)),
		PID: 1, TID: sp.tid,
	})
}

// Instant emits a ph "i" instant event on lane tid (no-op without a
// sink).
func (r *Recorder) Instant(tid int, cat, name string) {
	s := r.sink()
	if s == nil {
		return
	}
	s.Emit(Event{
		Name: name, Cat: cat, Ph: "i", S: "t",
		TS: micros(time.Since(r.start)), PID: 1, TID: tid,
	})
}

// micros converts a duration to trace microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
