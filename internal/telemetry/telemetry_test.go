package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterTimerGaugeAggregation(t *testing.T) {
	r := New()
	c := r.Counter("flushes")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("flushes") != c {
		t.Fatal("counter not memoized by name")
	}

	tm := r.Timer("compact")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(5 * time.Millisecond)
	tm.Observe(1 * time.Millisecond)
	if tm.Count() != 3 || tm.Total() != 8*time.Millisecond || tm.Max() != 5*time.Millisecond {
		t.Fatalf("timer = count %d total %v max %v", tm.Count(), tm.Total(), tm.Max())
	}

	g := r.Gauge("depth")
	for _, v := range []int64{1, 3, 2} {
		g.Observe(v)
	}
	if g.Count() != 3 || g.Mean() != 2 || g.Max() != 3 {
		t.Fatalf("gauge = count %d mean %v max %d", g.Count(), g.Mean(), g.Max())
	}

	m := r.Metrics()
	if m.Counters["flushes"] != 4 {
		t.Fatalf("metrics counter = %d", m.Counters["flushes"])
	}
	if ts := m.Timers["compact"]; ts.Count != 3 || ts.TotalNS != int64(8*time.Millisecond) {
		t.Fatalf("metrics timer = %+v", ts)
	}
	if gs := m.Gauges["depth"]; gs.Max != 3 || gs.Mean != 2 {
		t.Fatalf("metrics gauge = %+v", gs)
	}
}

func TestConcurrentProbes(t *testing.T) {
	r := New()
	c := r.Counter("n")
	g := r.Gauge("g")
	tm := r.Timer("t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Observe(int64(i % 7))
				tm.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || tm.Count() != 8000 || g.Count() != 8000 {
		t.Fatalf("lost updates: c=%d t=%d g=%d", c.Value(), tm.Count(), g.Count())
	}
	if g.Max() != 6 {
		t.Fatalf("gauge max = %d, want 6", g.Max())
	}
}

// TestNilSafety exercises the entire probe surface on nil receivers: the
// off path the engine relies on.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.SetProgram("x")
	r.SetTrace(NewBuffer())
	r.DeclareLane(0, "kernel")
	r.Instant(0, "c", "i")
	r.Span(0, "c", "s").End()
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	tm := r.Timer("t")
	tm.Observe(time.Second)
	tm.Start().Stop()
	if tm.Count() != 0 || tm.Total() != 0 || tm.Max() != 0 {
		t.Fatal("nil timer accumulated")
	}
	g := r.Gauge("g")
	g.Observe(9)
	if g.Count() != 0 || g.Mean() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	m := r.Metrics()
	if len(m.Counters) != 0 || len(m.Timers) != 0 || len(m.Gauges) != 0 {
		t.Fatal("nil recorder exported probes")
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestNoopProbesAllocationFree is the hot-path guard: probing through a
// disabled (nil) recorder must not allocate.
func TestNoopProbesAllocationFree(t *testing.T) {
	var r *Recorder
	c := r.Counter("c")
	tm := r.Timer("t")
	g := r.Gauge("g")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		sw := tm.Start()
		sw.Stop()
		g.Observe(7)
		r.Span(LaneKernel, "kernel", "k").End()
		r.Instant(LaneKernel, "flush", "f")
	}); allocs != 0 {
		t.Fatalf("no-op probes allocated %v per run, want 0", allocs)
	}
}

// TestEnabledProbesAllocationFree guards the on path too: metric probes
// (not tracing) must stay allocation-free once created.
func TestEnabledProbesAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	tm := r.Timer("t")
	g := r.Gauge("g")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		sw := tm.Start()
		sw.Stop()
		g.Observe(7)
	}); allocs != 0 {
		t.Fatalf("enabled probes allocated %v per run, want 0", allocs)
	}
}

func TestTraceEventOrderingAndFormat(t *testing.T) {
	r := New()
	r.DeclareLane(LaneKernel, "kernel execution")
	r.DeclareLane(LaneAnalysis, "analysis")
	buf := NewBuffer()
	r.AttachTrace(buf)

	sp := r.Span(LaneKernel, "kernel", "saxpy")
	time.Sleep(time.Millisecond)
	r.Instant(LaneKernel, "sanitizer", "flush")
	inner := r.Span(LaneAnalysis, "analysis", "absorb")
	inner.End()
	sp.End()

	evs := buf.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5 (2 meta + instant + 2 spans)", len(evs))
	}
	// Lane metadata first, in lane order.
	if evs[0].Ph != "M" || evs[0].TID != LaneKernel || evs[0].Args["name"] != "kernel execution" {
		t.Fatalf("meta[0] = %+v", evs[0])
	}
	if evs[1].Ph != "M" || evs[1].TID != LaneAnalysis {
		t.Fatalf("meta[1] = %+v", evs[1])
	}
	flush, absorb, kernel := evs[2], evs[3], evs[4]
	if flush.Ph != "i" || flush.S != "t" || flush.Name != "flush" {
		t.Fatalf("instant = %+v", flush)
	}
	if absorb.Ph != "X" || absorb.TID != LaneAnalysis {
		t.Fatalf("absorb = %+v", absorb)
	}
	if kernel.Ph != "X" || kernel.TID != LaneKernel || kernel.Name != "saxpy" {
		t.Fatalf("kernel = %+v", kernel)
	}
	// Spans end in completion order; timestamps must be consistent: the
	// kernel span opened first and covers the others.
	if kernel.TS > flush.TS || kernel.TS > absorb.TS {
		t.Fatalf("kernel span starts after its children: %v vs %v/%v", kernel.TS, flush.TS, absorb.TS)
	}
	if kernel.TS+kernel.Dur < absorb.TS+absorb.Dur {
		t.Fatalf("kernel span ends before the absorb it covers")
	}
	if kernel.Dur < 1000 { // slept 1ms = 1000µs
		t.Fatalf("kernel span dur = %vµs, want >= 1000", kernel.Dur)
	}

	var out bytes.Buffer
	if err := buf.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("round-trip lost events: %d", len(doc.TraceEvents))
	}
	if !strings.Contains(out.String(), `"traceEvents"`) {
		t.Fatal("not a Chrome trace object")
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	r := New()
	r.SetProgram("demo")
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Timer("t").Observe(time.Millisecond)
	var one, two bytes.Buffer
	if err := r.WriteMetrics(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&two); err != nil {
		t.Fatal(err)
	}
	// Wall time differs between snapshots; mask it before comparing.
	mask := func(b []byte) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "wall_ns")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if mask(one.Bytes()) != mask(two.Bytes()) {
		t.Fatalf("metrics export not deterministic:\n%s\n%s", one.String(), two.String())
	}
	if !strings.Contains(one.String(), `"program": "demo"`) {
		t.Fatalf("program missing: %s", one.String())
	}
}

// TestSpanWithoutSinkReadsNoClock documents the contract that a span
// from a sink-less recorder is inert even on a non-nil recorder.
func TestSpanWithoutSinkReadsNoClock(t *testing.T) {
	r := New()
	sp := r.Span(LaneKernel, "kernel", "k")
	if sp.sink != nil {
		t.Fatal("span has sink with none attached")
	}
	sp.End() // must not panic
	r.Instant(LaneKernel, "c", "i")
}

func TestLabelsInMetricsExport(t *testing.T) {
	r := New()
	r.SetProgram("demo")
	// No labels: the export must not gain a labels key, keeping single-run
	// exports unchanged.
	var plain bytes.Buffer
	if err := r.WriteMetrics(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"labels"`) {
		t.Fatalf("label-less export carries labels: %s", plain.String())
	}

	r.SetLabel("session", "s-1")
	r.SetLabel("workload", "darknet")
	if got := r.Label("session"); got != "s-1" {
		t.Fatalf("Label(session) = %q", got)
	}
	m := r.Metrics()
	if m.Labels["session"] != "s-1" || m.Labels["workload"] != "darknet" {
		t.Fatalf("Labels = %v", m.Labels)
	}
	var tagged bytes.Buffer
	if err := r.WriteMetrics(&tagged); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tagged.String(), `"session": "s-1"`) {
		t.Fatalf("labels missing from export: %s", tagged.String())
	}

	r.SetLabel("workload", "") // removal
	if got := r.Label("workload"); got != "" {
		t.Fatalf("removed label still present: %q", got)
	}

	// Nil safety mirrors the other recorder methods.
	var nr *Recorder
	nr.SetLabel("k", "v")
	if got := nr.Label("k"); got != "" {
		t.Fatalf("nil recorder Label = %q", got)
	}
}

func TestProcessSinkRewritesPID(t *testing.T) {
	shared := NewBuffer()
	r := New()
	r.DeclareLane(LaneKernel, "kernel execution")
	r.AttachTrace(ProcessSink(shared, 7, "session s-7"))
	r.Instant(LaneKernel, "c", "tick")
	r.Span(LaneKernel, "kernel", "k").End()

	events := shared.Events()
	var sawProcName bool
	for _, ev := range events {
		if ev.PID != 7 {
			t.Fatalf("event %q kept PID %d, want 7", ev.Name, ev.PID)
		}
		if ev.Name == "process_name" {
			sawProcName = true
			if ev.Args["name"] != "session s-7" {
				t.Fatalf("process_name args = %v", ev.Args)
			}
		}
	}
	if !sawProcName {
		t.Fatal("no process_name metadata emitted")
	}
	if len(events) < 4 { // process_name, thread_name, instant, span
		t.Fatalf("only %d events captured", len(events))
	}
}

// TestBufferRingDropsOldest: past its capacity a ring keeps the newest
// ringCap events in emission order and counts the rest as dropped, in
// both Events and the serialized trace. Metadata events live apart: the
// process name emitted first survives the wrap and is listed first.
func TestBufferRingDropsOldest(t *testing.T) {
	buf := NewRing()
	meta := Event{Name: "process_name", Ph: "M", PID: 7, Args: map[string]any{"name": "s-1"}}
	buf.Emit(meta)
	const extra = 1000
	for i := 0; i < ringCap+extra; i++ {
		buf.Emit(Event{Name: "e", Ph: "i", TID: i})
	}
	if got := buf.Dropped(); got != extra {
		t.Fatalf("Dropped() = %d, want %d", got, extra)
	}
	evs := buf.Events()
	if len(evs) != 1+ringCap {
		t.Fatalf("holds %d events, want the cap %d plus the metadata event", len(evs), ringCap)
	}
	if evs[0].Ph != "M" || evs[0].Args["name"] != "s-1" {
		t.Fatalf("first event %+v, want the process_name metadata", evs[0])
	}
	for i, ev := range evs[1:] {
		if ev.TID != extra+i {
			t.Fatalf("event %d is #%d, want #%d (oldest dropped, order kept)", i, ev.TID, extra+i)
		}
	}
	var out bytes.Buffer
	if err := buf.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.TraceEvents); n != 1+ringCap || doc.TraceEvents[0].Ph != "M" ||
		doc.TraceEvents[1].TID != extra || doc.TraceEvents[n-1].TID != ringCap+extra-1 {
		t.Fatalf("serialized %d events, first %q, then #%d", n, doc.TraceEvents[0].Ph, doc.TraceEvents[1].TID)
	}

	// Metadata has its own bound.
	for i := 0; i < metaCap; i++ {
		buf.Emit(Event{Name: "thread_name", Ph: "M", TID: i})
	}
	if got := buf.Dropped(); got != extra+1 {
		t.Fatalf("after %d more metadata events Dropped() = %d, want %d", metaCap, got, extra+1)
	}
	if evs := buf.Events(); len(evs) != metaCap+ringCap || evs[0].TID != 0 || evs[0].Ph != "M" {
		t.Fatalf("holds %d events, first %+v", len(evs), evs[0])
	}
}

// TestBufferKeepsEverything: NewBuffer, for runs that end, never drops
// an event and keeps metadata in emission order.
func TestBufferKeepsEverything(t *testing.T) {
	buf := NewBuffer()
	for i := 0; i < ringCap+10; i++ {
		ph := "i"
		if i == ringCap {
			ph = "M"
		}
		buf.Emit(Event{Name: "e", Ph: ph, TID: i})
	}
	evs := buf.Events()
	if buf.Dropped() != 0 || len(evs) != ringCap+10 || evs[0].TID != 0 || evs[ringCap].Ph != "M" {
		t.Fatalf("dropped %d, holds %d events", buf.Dropped(), len(evs))
	}
}
