package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/telemetry"
)

// requireNoGoroutineLeak polls until the goroutine count returns to base,
// failing if it does not settle — the "no goroutine leaks after Drain"
// property. Polling absorbs transient runtime goroutines.
func requireNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// faultyQuickstart drives the quickstart program but tolerates API
// errors, recording them — how a fault-tolerant application behaves.
func faultyQuickstart(rt *cuda.Runtime) []error {
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	const n = 2048
	x, err := rt.Malloc(4*n, "x")
	note(err)
	y, err2 := rt.Malloc(4*n, "y")
	note(err2)
	if err != nil || err2 != nil {
		return errs
	}
	xs := make([]byte, 4*n)
	for i := range xs {
		xs[i] = byte(i % 251)
	}
	note(rt.MemcpyH2D(x, xs))
	note(rt.Memset(y, 0, 4*n))
	k := &gpu.GoKernel{
		Name: "copy_scale",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			v := th.LoadF32(0, uint64(x)+uint64(4*i))
			th.StoreF32(1, uint64(y)+uint64(4*i), 2*v)
		},
	}
	note(rt.Launch(k, gpu.Dim1(n/128), gpu.Dim1(128)))
	note(rt.Launch(k, gpu.Dim1(n/128), gpu.Dim1(128)))
	note(rt.MemcpyD2H(make([]byte, 4*n), y))
	note(rt.Free(x))
	return errs
}

var faultyCfg = Config{
	Coarse: true, Fine: true,
	BufferRecords: 64,
	Program:       "faulty",
}

// runWithPlan attaches a profiler to a fresh runtime with plan armed,
// runs the tolerant program, detaches, and returns profiler + API errors.
// The run happens on a fresh goroutine so call-path frames are identical
// across runs (the byte-identity tests depend on this).
func runWithPlan(t *testing.T, plan *faultinject.Plan, cfg Config) (*Profiler, []error) {
	t.Helper()
	var (
		p    *Profiler
		errs []error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		rt.ArmFaults(plan)
		p = Attach(rt, cfg)
		errs = faultyQuickstart(rt)
		p.Detach()
	}()
	wg.Wait()
	return p, errs
}

func TestDegradedMallocFault(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faultinject.New().FailNth(faultinject.Malloc, 2)
	p, errs := runWithPlan(t, plan, faultyCfg)
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want 1 malloc failure", errs)
	}
	var ce *cuda.Error
	if !errors.As(errs[0], &ce) || ce.Code != cuda.ErrOOM || !ce.Injected {
		t.Fatalf("error = %+v", errs[0])
	}
	rep := p.Report()
	if rep.Degraded == nil {
		t.Fatal("no Degraded section after injected malloc fault")
	}
	if len(rep.Degraded.FailedAPIs) != 1 || !strings.Contains(rep.Degraded.FailedAPIs[0], "cudaMalloc") {
		t.Fatalf("FailedAPIs = %v", rep.Degraded.FailedAPIs)
	}
	if got := rep.Degraded.InjectedFaults; len(got) != 1 || got[0] != "malloc@2" {
		t.Fatalf("InjectedFaults = %v", got)
	}
	requireNoGoroutineLeak(t, base)
}

func TestDegradedTransferFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, pt := range []faultinject.Point{faultinject.Memcpy, faultinject.Memset} {
		plan := faultinject.New().FailNth(pt, 1)
		p, errs := runWithPlan(t, plan, faultyCfg)
		if len(errs) != 1 {
			t.Fatalf("%s: errors = %v", pt, errs)
		}
		var ce *cuda.Error
		if !errors.As(errs[0], &ce) || ce.Code != cuda.ErrTransfer || !ce.Injected {
			t.Fatalf("%s: error = %+v", pt, errs[0])
		}
		rep := p.Report()
		if rep.Degraded == nil || len(rep.Degraded.FailedAPIs) == 0 {
			t.Fatalf("%s: Degraded = %+v", pt, rep.Degraded)
		}
	}
	requireNoGoroutineLeak(t, base)
}

func TestDegradedLaunchBoundaryFault(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faultinject.New().FailNth(faultinject.Launch, 1)
	p, errs := runWithPlan(t, plan, faultyCfg)
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	rep := p.Report()
	if rep.Degraded == nil {
		t.Fatal("no Degraded section")
	}
	// The first launch's analysis was discarded; the second completed.
	// (LaunchesProfiled counts instrumentation setup, which precedes the
	// fault, so the loss shows up as a skip, not a lower profile count.)
	if rep.Degraded.SkippedLaunches != 1 {
		t.Fatalf("SkippedLaunches = %d, want 1", rep.Degraded.SkippedLaunches)
	}
	if rep.Stats.KernelLaunches != 1 {
		t.Fatalf("KernelLaunches = %d, want 1 (only the surviving launch ran)", rep.Stats.KernelLaunches)
	}
	requireNoGoroutineLeak(t, base)
}

func TestDegradedLaunchMidKernelFault(t *testing.T) {
	base := runtime.NumGoroutine()
	// Abort after 100 instrumented accesses: several 64-record buffers are
	// already in the pipeline when the kernel dies.
	plan := faultinject.New().FailLaunchNth(1, 100)
	p, errs := runWithPlan(t, plan, faultyCfg)
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	var ce *cuda.Error
	if !errors.As(errs[0], &ce) || ce.Code != cuda.ErrLaunch || !ce.Injected {
		t.Fatalf("error = %+v", errs[0])
	}
	rep := p.Report()
	if rep.Degraded == nil || rep.Degraded.SkippedLaunches != 1 {
		t.Fatalf("Degraded = %+v", rep.Degraded)
	}
	requireNoGoroutineLeak(t, base)
}

func TestDegradedFlushDropAndTruncate(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faultinject.New().
		FailNth(faultinject.FlushDrop, 1).
		FailNth(faultinject.FlushTruncate, 1)
	p, errs := runWithPlan(t, plan, faultyCfg)
	if len(errs) != 0 {
		t.Fatalf("delivery faults must not fail APIs, got %v", errs)
	}
	rep := p.Report()
	if rep.Degraded == nil {
		t.Fatal("no Degraded section after dropped deliveries")
	}
	if rep.Degraded.DroppedRecords == 0 || rep.Degraded.DroppedFlushes != 1 {
		t.Fatalf("Degraded = %+v", rep.Degraded)
	}
	if len(rep.Degraded.FailedAPIs) != 0 || rep.Degraded.SkippedLaunches != 0 {
		t.Fatalf("Degraded = %+v", rep.Degraded)
	}
	requireNoGoroutineLeak(t, base)
}

// TestFlushDelayIsCleanDegradation: a delayed delivery loses nothing; the
// report is byte-identical to the unfaulted baseline except for the
// Degraded section naming the fired injection.
func TestFlushDelayIsCleanDegradation(t *testing.T) {
	pBase, _ := runWithPlan(t, nil, faultyCfg)
	pDelay, errs := runWithPlan(t, faultinject.New().FailNth(faultinject.FlushDelay, 1), faultyCfg)
	if len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	repB, repD := pBase.Report(), pDelay.Report()
	if repB.Degraded != nil {
		t.Fatal("baseline degraded")
	}
	if repD.Degraded == nil || repD.Degraded.DroppedRecords != 0 {
		t.Fatalf("delay Degraded = %+v", repD.Degraded)
	}
	// Strip the Degraded section: everything else must match the baseline.
	repD.Degraded = nil
	repB.Stats.AnalysisTime, repD.Stats.AnalysisTime = 0, 0
	var b1, b2 bytes.Buffer
	if err := repB.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := repD.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("delayed-flush report diverged from baseline:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

// TestArmedButSilentPlanKeepsReportClean: arming a plan that never fires
// must not perturb the report by a single byte.
func TestArmedButSilentPlanKeepsReportClean(t *testing.T) {
	pBase, _ := runWithPlan(t, nil, faultyCfg)
	pArmed, errs := runWithPlan(t, faultinject.New().FailNth(faultinject.Malloc, 99), faultyCfg)
	if len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	if rep := pArmed.Report(); rep.Degraded != nil {
		t.Fatalf("silent plan produced Degraded = %+v", rep.Degraded)
	}
	b1, b2 := reportJSON(t, pBase), reportJSON(t, pArmed)
	if !bytes.Equal(b1, b2) {
		t.Fatal("armed-but-silent plan changed report bytes")
	}
}

// TestDoubleDrainIdempotent: Drain after the runtime already drained a
// faulted launch is a no-op — counts don't move, nothing blocks.
func TestDoubleDrainIdempotent(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faultinject.New().FailLaunchNth(1, 100)
	p, _ := runWithPlan(t, plan, faultyCfg)
	before := p.Report().Degraded.SkippedLaunches
	p.Drain()
	p.Drain()
	if after := p.Report().Degraded.SkippedLaunches; after != before {
		t.Fatalf("SkippedLaunches moved %d -> %d on idempotent Drain", before, after)
	}
	requireNoGoroutineLeak(t, base)
}

// TestDrainRacesInFlightFaultedLaunch: a mid-kernel fault triggers the
// runtime's Drain while the analysis goroutine is still working through
// in-flight batches (tiny buffers). Run under -race this is the
// drain/analysis-goroutine race check; afterwards the engine must accept
// new work.
func TestDrainRacesInFlightFaultedLaunch(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := faultyCfg
	cfg.BufferRecords = 8
	plan := faultinject.New().FailLaunchNth(1, 500)
	p, errs := runWithPlan(t, plan, cfg)
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	rep := p.Report()
	if rep.Degraded == nil || rep.Degraded.SkippedLaunches != 1 {
		t.Fatalf("Degraded = %+v", rep.Degraded)
	}
	// The second launch completed after the aborted first one.
	if rep.Stats.KernelLaunches != 1 {
		t.Fatalf("KernelLaunches = %d, want 1 completed", rep.Stats.KernelLaunches)
	}
	requireNoGoroutineLeak(t, base)
}

// TestSessionCloseAfterMidPipelineFault: a two-device session where one
// device's kernel dies mid-pipeline still closes cleanly, keeps the other
// device's report intact, and leaks nothing.
func TestSessionCloseAfterMidPipelineFault(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := faultyCfg
	cfg.BufferRecords = 16
	s, err := NewSession(cfg, gpu.RTX2080Ti, gpu.RTX2080Ti)
	if err != nil {
		t.Fatal(err)
	}
	// Arm after attach: launch faults still fire (the runtime consults the
	// plan per call); only sanitizer delivery faults need arm-before-attach.
	s.Runtime(0).ArmFaults(faultinject.New().FailLaunchNth(1, 100))
	errs0 := faultyQuickstart(s.Runtime(0))
	errs1 := faultyQuickstart(s.Runtime(1))
	if len(errs0) != 1 || len(errs1) != 0 {
		t.Fatalf("errs0 = %v, errs1 = %v", errs0, errs1)
	}
	s.Close()
	reps := s.Reports()
	if reps[0].Degraded == nil || reps[0].Degraded.SkippedLaunches != 1 {
		t.Fatalf("device 0 Degraded = %+v", reps[0].Degraded)
	}
	if reps[1].Degraded != nil {
		t.Fatalf("device 1 degraded: %+v", reps[1].Degraded)
	}
	if reps[1].Stats.LaunchesProfiled != 2 {
		t.Fatalf("device 1 LaunchesProfiled = %d", reps[1].Stats.LaunchesProfiled)
	}
	requireNoGoroutineLeak(t, base)
}

// TestFaultTelemetryCounters: the PR-4 telemetry layer surfaces fault
// counters when a recorder rides along.
func TestFaultTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	cfg := faultyCfg
	cfg.Telemetry = tel
	plan := faultinject.New().
		FailNth(faultinject.Memcpy, 1).
		FailLaunchNth(1, 100).
		FailNth(faultinject.FlushDrop, 1)
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	rt.ArmFaults(plan)
	p := Attach(rt, cfg)
	faultyQuickstart(rt)
	p.Detach()
	if got := tel.Counter("faults.injected").Value(); got != 3 {
		t.Fatalf("faults.injected = %d, want 3", got)
	}
	if got := tel.Counter("engine.failed_apis").Value(); got != 2 {
		t.Fatalf("engine.failed_apis = %d, want 2 (memcpy + launch)", got)
	}
	if got := tel.Counter("engine.skipped_launches").Value(); got != 1 {
		t.Fatalf("engine.skipped_launches = %d", got)
	}
	if got := tel.Counter("sanitizer.dropped_records").Value(); got == 0 {
		t.Fatal("sanitizer.dropped_records = 0")
	}
}

// TestDegradedTextRendering: the report's text form carries the banner.
func TestDegradedTextRendering(t *testing.T) {
	plan := faultinject.New().FailLaunchNth(1, 100)
	p, _ := runWithPlan(t, plan, faultyCfg)
	text := p.Report().Text()
	if !strings.Contains(text, "DEGRADED RUN") ||
		!strings.Contains(text, "launch@1+100") ||
		!strings.Contains(text, "launches skipped by analysis: 1") {
		t.Fatalf("text:\n%s", text)
	}
}
