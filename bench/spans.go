package main

import (
	"sync"
	"time"

	"valueexpert/internal/telemetry"
)

// spans times calls into the program from outside: a span opens just
// before a call to a public function (Workload.Run, core.Profile,
// Report/WriteJSON, trace.Record, trace.Scan, an HTTP request to /v1)
// and closes just after it. Every span's duration lands in a sample list
// keyed by op and application, which the metrics are computed from,
// together with the calibration times measured around the call. In a
// traced run each span is also emitted into a telemetry.Buffer as a
// Chrome trace event carrying its workload, iteration, op, application
// and parent, so the run loads in Perfetto.
type spans struct {
	workload string
	buf      *telemetry.Buffer // nil in untraced runs

	mu      sync.Mutex
	next    int
	cal     float64 // latest calibration time, ms
	samples map[spanKey][]sample
	pending []sampleRef // samples ended since the latest calibration
	scope   *span       // open set-up or daemon block: the parent of spans begun without one
}

// sampleRef locates one recorded sample.
type sampleRef struct {
	key spanKey
	i   int
}

type spanKey struct{ op, app string }

// span is one open span. Its id is unique within the run; parent is the
// id of the span it ran inside, 0 at top level.
type span struct {
	id, parent, lane, iter int
	op, app                string
	reps                   int     // back-to-back repetitions of the call it times
	cal                    float64 // calibration in force when it began
	start                  time.Time
}

// origin is time zero of every span's timestamp, so the workloads of one
// run follow each other on the trace's timeline.
var origin = time.Now()

func newSpans(workload string, buf *telemetry.Buffer) *spans {
	return &spans{workload: workload, buf: buf, samples: map[spanKey][]sample{}}
}

// setCal records a fresh calibration time. A sample is normalized by
// the mean of the calibrations just before and just after its span, so
// this one completes every sample ended since the previous calibration
// and is the "before" of the spans that begin from now on.
func (s *spans) setCal(ms float64) {
	s.mu.Lock()
	for _, r := range s.pending {
		smp := &s.samples[r.key][r.i]
		smp.cal = (smp.cal + ms) / 2
	}
	s.pending = s.pending[:0]
	s.cal = ms
	s.mu.Unlock()
}

// begin opens a span. lane is the trace thread it renders on: 0 for the
// driving goroutine, 1+i for daemon client i.
func (s *spans) begin(parent *span, lane, iter int, op, app string) *span {
	return s.beginReps(parent, lane, iter, op, app, 1)
}

// beginReps opens a span around reps back-to-back repetitions of one
// call; its sample is the time of one repetition.
func (s *spans) beginReps(parent *span, lane, iter int, op, app string, reps int) *span {
	s.mu.Lock()
	s.next++
	sp := &span{id: s.next, lane: lane, iter: iter, op: op, app: app, reps: reps, cal: s.cal}
	if parent == nil {
		parent = s.scope
	}
	s.mu.Unlock()
	if parent != nil {
		sp.parent = parent.id
	}
	sp.start = time.Now()
	return sp
}

// beginScope opens a span that every span begun without a parent, on any
// goroutine, runs inside until it ends.
func (s *spans) beginScope(iter int, op string) *span {
	sp := s.begin(nil, 0, iter, op, "")
	s.mu.Lock()
	s.scope = sp
	s.mu.Unlock()
	return sp
}

// end closes sp and records its sample.
func (s *spans) end(sp *span) {
	d := time.Since(sp.start)
	smp := sample{ms: float64(d) / float64(time.Millisecond) / float64(sp.reps), cal: sp.cal}
	s.mu.Lock()
	if s.scope == sp {
		s.scope = nil
	}
	k := spanKey{sp.op, sp.app}
	s.samples[k] = append(s.samples[k], smp)
	s.pending = append(s.pending, sampleRef{k, len(s.samples[k]) - 1})
	s.mu.Unlock()
	if s.buf != nil {
		s.buf.Emit(telemetry.Event{
			Name: sp.op, Cat: s.workload, Ph: "X",
			TS:  float64(sp.start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(d) / float64(time.Microsecond),
			PID: 1, TID: sp.lane,
			Args: map[string]any{
				"workload": s.workload, "iteration": sp.iter, "op": sp.op,
				"app": sp.app, "id": sp.id, "parent": sp.parent, "reps": sp.reps,
			},
		})
	}
}

// get returns the samples of op on app.
func (s *spans) get(op, app string) []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.samples[spanKey{op, app}]...)
}

// all returns the samples of op pooled over every app.
func (s *spans) all(op string) []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sample
	for k, xs := range s.samples {
		if k.op == op {
			out = append(out, xs...)
		}
	}
	return out
}
