package valueexpert

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
)

// TestEndToEndQuickstart exercises the whole public API surface exactly
// like the README's quickstart: allocate, initialize twice (the classic
// redundancy), launch, profile, render, and export the graph.
func TestEndToEndQuickstart(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Coarse: true, Fine: true, Program: "quickstart"})

	const n = 4096
	buf, err := rt.MallocF32(n, "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(buf, 0, 4*n); err != nil {
		t.Fatal(err)
	}
	zero := &gpu.GoKernel{
		Name: "init_kernel",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			th.StoreF32(0, uint64(buf)+uint64(4*i), 0) // zeros over zeros
		},
	}
	if err := rt.Launch(zero, gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	pats := rep.PatternSet()
	for _, want := range []PatternKind{RedundantValues, SingleValue, SingleZero} {
		if !pats[want.String()] {
			t.Fatalf("missing pattern %v in %v", want, pats)
		}
	}
	if !strings.Contains(rep.Text(), "init_kernel") {
		t.Fatal("report text missing kernel")
	}

	// JSON round trip through the public API.
	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != "quickstart" {
		t.Fatal("round trip lost program name")
	}

	// Graph export and analysis through the facade types.
	g := p.Graph()
	dot := g.DOT(DOTOptions{Title: "quickstart"})
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "color=red") {
		t.Fatalf("graph DOT missing content:\n%s", dot)
	}
	gi := g.ImportantGraph(1, 1e18, Importance{})
	if gi.NumEdges() == 0 {
		t.Fatal("important graph lost everything")
	}
}

// TestRecordReplayFacade drives the promoted record/replay API: capture
// a run through valueexpert.Record, replay it with NewTraceSource, and
// check the offline analysis sees the same program.
func TestRecordReplayFacade(t *testing.T) {
	runProgram := func(rt *cuda.Runtime) {
		const n = 1024
		buf, err := rt.MallocF32(n, "data")
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(buf, 0, 4*n); err != nil {
			t.Fatal(err)
		}
		k := &gpu.GoKernel{
			Name: "zero_again",
			Func: func(th *gpu.Thread) {
				i := th.GlobalID()
				if i >= n {
					return
				}
				th.StoreF32(0, uint64(buf)+uint64(4*i), 0)
			},
		}
		if err := rt.Launch(k, gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
			t.Fatal(err)
		}
	}

	var traceBuf bytes.Buffer
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	rec := Record(rt, &traceBuf)
	runProgram(rt)
	if rec.Events() == 0 {
		t.Fatal("recorder captured nothing")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if traceBuf.Len() == 0 {
		t.Fatal("Close wrote no bytes")
	}

	src := NewTraceSource(bytes.NewReader(traceBuf.Bytes()), gpu.RTX2080Ti)
	p, err := Profile(src, Config{Coarse: true, Fine: true, Program: "replayed"})
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if !strings.Contains(rep.Text(), "zero_again") {
		t.Fatal("replayed report missing the recorded kernel")
	}
	if !rep.PatternSet()[RedundantValues.String()] {
		t.Fatal("replayed analysis lost the redundant memset finding")
	}
}

// TestTelemetryFacade threads a recorder and trace buffer through the
// public API and checks both exports carry data.
func TestTelemetryFacade(t *testing.T) {
	tel := NewTelemetry()
	traceBuf := NewTraceBuffer()
	tel.AttachTrace(traceBuf)

	src := NewLiveSource(cuda.NewRuntime(gpu.A100), func(rt *cuda.Runtime) error {
		const n = 512
		buf, err := rt.MallocF32(n, "x")
		if err != nil {
			return err
		}
		return rt.CopyF32ToDevice(buf, make([]float32, n))
	})
	p, err := Profile(src, Config{Coarse: true, Telemetry: tel, Program: "facade"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()

	m := tel.Metrics()
	if m.Program != "facade" {
		t.Fatalf("metrics program = %q", m.Program)
	}
	var out bytes.Buffer
	if err := tel.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"counters\"") {
		t.Fatal("metrics export missing counters")
	}
	out.Reset()
	if err := traceBuf.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traceEvents") {
		t.Fatal("trace export missing traceEvents envelope")
	}

	var ov *OverheadStats = p.Overhead()
	if ov == nil {
		t.Fatal("no overhead stats")
	}
}

// TestConfigValidateFacade: the validator and its typed error are part
// of the public surface.
func TestConfigValidateFacade(t *testing.T) {
	good := Config{Coarse: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{BufferRecords: -1}
	err := bad.Validate()
	ce, ok := err.(*ConfigError)
	if !ok || ce.Field != "BufferRecords" {
		t.Fatalf("Validate error = %v", err)
	}
}

func TestMergeIntervalsFacade(t *testing.T) {
	ivs := []Interval{{Start: 8, End: 12}, {Start: 0, End: 4}, {Start: 4, End: 8}}
	got := MergeIntervals(ivs, 2)
	if len(got) != 1 || got[0] != (Interval{Start: 0, End: 12}) {
		t.Fatalf("MergeIntervals = %v", got)
	}
	seq := MergeIntervalsSequential(ivs)
	if len(seq) != 1 || seq[0] != got[0] {
		t.Fatalf("sequential merge = %v", seq)
	}
}

func TestCopyStrategyConstants(t *testing.T) {
	names := map[CopyStrategy]string{
		DirectCopy: "direct", MinMaxCopy: "min-max",
		SegmentCopy: "segment", AdaptiveCopy: "adaptive",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%v != %s", s, want)
		}
	}
}

func TestPatternKindConstants(t *testing.T) {
	kinds := []PatternKind{
		RedundantValues, DuplicateValues, FrequentValues, SingleValue,
		SingleZero, HeavyType, StructuredValues, ApproximateValues,
	}
	if len(kinds) != int(NumPatternKinds) {
		t.Fatal("pattern kind count mismatch")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k.String()] {
			t.Fatalf("duplicate kind name %q", k)
		}
		seen[k.String()] = true
	}
}

// TestFineConfigThresholds drives the public threshold knobs end to end.
func TestFineConfigThresholds(t *testing.T) {
	rt := cuda.NewRuntime(gpu.A100)
	p := Attach(rt, Config{
		Fine:       true,
		FineConfig: FineConfig{FrequentThreshold: 0.95},
		Program:    "thresholds",
	})
	const n = 1024
	buf, _ := rt.MallocF32(n, "x")
	k := &gpu.GoKernel{
		Name: "writer",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			v := float32(0)
			if i%10 == 0 { // 90% zeros: above 0.5, below 0.95
				v = float32(i)
			}
			th.StoreF32(0, uint64(buf)+uint64(4*i), v)
		},
	}
	if err := rt.Launch(k, gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
		t.Fatal(err)
	}
	if p.Report().PatternSet()["frequent values"] {
		t.Fatal("90% hot value should be below the 95% threshold")
	}
}

// TestFaultInjectionFacade drives the fault-injection surface end to
// end through the public API: arm a parsed plan, run a program that
// tolerates the injected OOM, and read the Degraded section back from a
// JSON round trip.
func TestFaultInjectionFacade(t *testing.T) {
	plan, err := ParseFaultSpec("malloc@2")
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	rt.ArmFaults(plan)
	p := Attach(rt, Config{Coarse: true, Fine: true, Program: "faulty"})
	defer p.Detach()

	const n = 1024
	buf, err := rt.MallocF32(n, "ok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MallocF32(n, "doomed"); err == nil {
		t.Fatal("armed malloc fault did not fire")
	} else {
		var ce *cuda.Error
		if !errors.As(err, &ce) || ce.Code != cuda.ErrOOM || !ce.Injected {
			t.Fatalf("injected error = %v, want typed OOM", err)
		}
	}
	if err := rt.Memset(buf, 0, 4*n); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	if rep.Degraded == nil {
		t.Fatal("report of a faulted run is not marked Degraded")
	}
	if len(rep.Degraded.InjectedFaults) != 1 || rep.Degraded.InjectedFaults[0] != "malloc@2" {
		t.Fatalf("InjectedFaults = %v", rep.Degraded.InjectedFaults)
	}
	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	var ds *DegradedStats = back.Degraded
	if ds == nil || len(ds.FailedAPIs) != 1 {
		t.Fatalf("round trip lost the degraded section: %+v", ds)
	}
	if !strings.Contains(rep.Text(), "DEGRADED RUN") {
		t.Fatal("text rendering missing the degraded banner")
	}

	// The plan's own accounting and the seeded/constructor facades.
	if plan.TotalFired() != 1 {
		t.Fatalf("TotalFired = %d", plan.TotalFired())
	}
	if NewFaultPlan().TotalFired() != 0 {
		t.Fatal("NewFaultPlan not empty")
	}
	if _, ok := SeededFaultPlan(7).Seed(); !ok {
		t.Fatal("SeededFaultPlan lost its seed")
	}
	for _, pt := range []FaultPoint{FaultMalloc, FaultMemcpy, FaultMemset,
		FaultLaunch, FaultFlushDrop, FaultFlushTruncate, FaultFlushDelay} {
		if pt.String() == "" {
			t.Fatal("unnamed fault point")
		}
	}
}
