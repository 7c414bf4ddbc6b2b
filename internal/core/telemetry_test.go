package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/workloads"
)

// TestTelemetryPreservesReportBytes is the tentpole's observer guarantee:
// threading a recorder (with a trace sink attached) through the engine
// must not perturb the report by a single byte. The small buffer forces
// many flushes so every instrumented path actually fires.
func TestTelemetryPreservesReportBytes(t *testing.T) {
	run := func(tel *telemetry.Recorder) []byte {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := Attach(rt, Config{
			Coarse: true, Fine: true, ReuseDistance: true,
			BufferRecords: 256,
			Telemetry:     tel,
			Program:       "quickstart",
		})
		runQuickstart(t, rt)
		p.Detach()
		return reportJSON(t, p)
	}
	// Both runs go through the one call site above so the allocation
	// call paths the report captures (file:line frames) match.
	tel := telemetry.New()
	tel.SetTrace(telemetry.NewBuffer())
	if !bytes.Equal(run(nil), run(tel)) {
		t.Error("telemetry perturbed the report")
	}

	// The recorder must actually have observed the run, or the identity
	// above proves nothing.
	m := tel.Metrics()
	if m.Counters["sanitizer.flushes"] == 0 {
		t.Error("no sanitizer flushes recorded")
	}
	if m.Counters["stage.coarse.batches"] == 0 {
		t.Error("no coarse batches recorded")
	}
	if m.Timers["collector.flush_capture"].Count == 0 {
		t.Error("flush capture timer never observed")
	}
}

// TestTelemetryPerStageMetrics checks the metric vocabulary the export
// promises: per-stage timers and per-strategy snapshot counters, and no
// metric of an engine part that does not exist.
func TestTelemetryPerStageMetrics(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	tel := telemetry.New()
	p := Attach(rt, Config{
		Coarse: true, Fine: true,
		BufferRecords: 256,
		Telemetry:     tel,
		Program:       "quickstart",
	})
	runQuickstart(t, rt)
	p.Detach()

	m := tel.Metrics()
	if m.Program != "quickstart" {
		t.Errorf("program = %q", m.Program)
	}
	for _, timer := range []string{
		"collector.flush_capture", "pipeline.drain_wait",
		"stage.coarse.analyze", "stage.fine.analyze",
		"snapshot.refresh", "merge.time",
	} {
		if _, ok := m.Timers[timer]; !ok {
			t.Errorf("timer %q missing from export (have %v)", timer, keys(m.Timers))
		}
	}
	for _, counter := range []string{
		"sanitizer.flushes", "sanitizer.records",
		"stage.coarse.batches", "stage.fine.batches",
		"snapshot.copy_bytes.direct", "snapshot.copy_calls.direct",
		"merge.input_intervals", "merge.output_intervals",
	} {
		if _, ok := m.Counters[counter]; !ok {
			t.Errorf("counter %q missing from export (have %v)", counter, keys(m.Counters))
		}
	}
	for _, gone := range []string{
		"pipeline.occupancy", "stage.fine.combine", "stage.coarse.combine", "scheduler.wait",
		"stage.fine.compact", "stage.fine.absorb", "stage.coarse.compact", "stage.coarse.absorb",
		"scheduler.acquires", "scheduler.in_use",
	} {
		_, g := m.Gauges[gone]
		_, tm := m.Timers[gone]
		_, c := m.Counters[gone]
		if g || tm || c {
			t.Errorf("removed metric %q still exported", gone)
		}
	}
	if m.Counters["sanitizer.records"] == 0 {
		t.Error("no access records counted")
	}

	// The export must be valid JSON with the documented envelope.
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"program", "wall_ns", "counters", "timers", "gauges"} {
		if _, ok := env[k]; !ok {
			t.Errorf("export missing %q", k)
		}
	}
}

// TestSelfTraceLanes checks the Chrome-trace side: kernel spans on the
// kernel lane, analysis spans on the analysis lane, flush instants, and
// lane metadata naming both threads.
func TestSelfTraceLanes(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	tel := telemetry.New()
	buf := telemetry.NewBuffer()
	tel.SetTrace(buf)
	p := Attach(rt, Config{
		Coarse: true, Fine: true,
		BufferRecords: 256,
		Telemetry:     tel,
		Program:       "quickstart",
	})
	runQuickstart(t, rt)
	p.Detach()

	lanes := map[int]bool{}
	var kernelSpans, analysisSpans, instants, meta int
	for _, ev := range buf.Events() {
		lanes[ev.TID] = true
		switch {
		case ev.Ph == "M":
			meta++
		case ev.Ph == "i":
			instants++
		case ev.Ph == "X" && ev.Cat == "kernel":
			kernelSpans++
			if ev.TID != telemetry.LaneKernel {
				t.Errorf("kernel span on lane %d", ev.TID)
			}
		case ev.Ph == "X" && ev.Cat == "analysis":
			analysisSpans++
			if ev.TID != telemetry.LaneAnalysis {
				t.Errorf("analysis span on lane %d", ev.TID)
			}
		}
	}
	if kernelSpans < 3 {
		t.Errorf("kernel spans = %d, want >= 3 (quickstart launches 3)", kernelSpans)
	}
	if analysisSpans == 0 {
		t.Error("no analysis spans")
	}
	if instants == 0 {
		t.Error("no flush instants")
	}
	if meta != 2 {
		t.Errorf("lane metadata events = %d, want kernel+analysis", meta)
	}
	if len(lanes) != 2 || !lanes[telemetry.LaneKernel] || !lanes[telemetry.LaneAnalysis] {
		t.Errorf("expected the kernel and analysis lanes, got %v", lanes)
	}
}

// TestOverheadSection: Overhead() attributes time only when asked, and
// the report renders it; default reports never carry the section.
func TestOverheadSection(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	tel := telemetry.New()
	p := Attach(rt, Config{Coarse: true, Fine: true, Telemetry: tel, Program: "quickstart"})
	runQuickstart(t, rt)
	p.Detach()

	rep := p.Report()
	if rep.Overhead != nil {
		t.Fatal("default report carries an overhead section")
	}
	ov := p.Overhead()
	if ov.AnalysisTime <= 0 {
		t.Errorf("analysis time = %v", ov.AnalysisTime)
	}
	if ov.FlushCaptureTime <= 0 {
		t.Errorf("flush capture time = %v (telemetry attached)", ov.FlushCaptureTime)
	}
	rep.Overhead = ov
	text := rep.Text()
	if !bytes.Contains([]byte(text), []byte("profiler overhead")) {
		t.Error("text report missing overhead section")
	}

	// Without telemetry the coarse attribution still works.
	rt2 := cuda.NewRuntime(gpu.RTX2080Ti)
	p2 := Attach(rt2, Config{Coarse: true, Program: "quickstart"})
	runQuickstart(t, rt2)
	p2.Detach()
	if ov2 := p2.Overhead(); ov2.AnalysisTime <= 0 {
		t.Errorf("untelemetered analysis time = %v", ov2.AnalysisTime)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestAnalysisTimeWithinWall: every nanosecond of analysis is counted
// once, so the engine's analysis time can never exceed the wall time of
// the profile it was spent in. A launch's final flush runs inside
// APIEnd, and counting it in both places once put Darknet's analysis
// time at 1.7x its wall time.
func TestAnalysisTimeWithinWall(t *testing.T) {
	w, err := workloads.ByName("Darknet")
	if err != nil {
		t.Fatal(err)
	}
	oldScale := workloads.Scale
	workloads.Scale = 32
	defer func() { workloads.Scale = oldScale }()

	src := cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
		return w.Run(rt, workloads.Original)
	})
	start := time.Now()
	p, err := Profile(src, Config{Coarse: true, Fine: true})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	if got := p.AnalysisTime(); got <= 0 || got > wall {
		t.Errorf("analysis time %v outside (0, wall %v]", got, wall)
	}
}
