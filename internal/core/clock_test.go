package core

import (
	"sync/atomic"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
)

// fakeClock is a scripted time source for the layer clock. Time moves
// only by tick, which also books the ticks to the layer the script says
// they belong to, so each layer's share is known exactly.
type fakeClock struct {
	ns   atomic.Int64
	want [numLayers]time.Duration
	// armed counts down the clock's reads on the kernel goroutine; the
	// read that brings it to zero signals blocked, telling the analysis
	// goroutine that the kernel goroutine has entered a wait.
	armed   int
	blocked chan struct{}
}

func (f *fakeClock) now() time.Time {
	t := time.Unix(0, f.ns.Load())
	if f.armed > 0 {
		if f.armed--; f.armed == 0 {
			f.blocked <- struct{}{}
		}
	}
	return t
}

func (f *fakeClock) tick(l layer, d time.Duration) {
	f.want[l] += d
	f.ns.Add(int64(d))
}

// scriptStage runs on the kernel goroutine and charges a fixed tick to
// each lifecycle call: its APIs and launch bookkeeping to the API layer,
// its batches to the flush layer and its Finish to the report layer.
// After the second batch it arms the fake clock for the buffer wait that
// follows.
type scriptStage struct {
	BaseStage
	f       *fakeClock
	batches int
}

func (s *scriptStage) Name() string                             { return "script" }
func (s *scriptStage) NeedsAccesses() bool                      { return true }
func (s *scriptStage) APIBegin(*cuda.APIEvent)                  { s.f.tick(layerAPI, 100) }
func (s *scriptStage) APIEnd(*cuda.APIEvent)                    { s.f.tick(layerAPI, 100) }
func (s *scriptStage) LaunchBegin(string) LaunchAnalysis        { s.f.tick(layerAPI, 100); return s }
func (s *scriptStage) LaunchEnd(*cuda.APIEvent, LaunchAnalysis) { s.f.tick(layerAPI, 100) }
func (s *scriptStage) Finish(*profile.Report)                   { s.f.tick(layerReport, 100_000) }

func (s *scriptStage) Analyze(*Batch) {
	s.f.tick(layerFlush, 10)
	if s.batches++; s.batches == 2 {
		// Both buffers are now in flight: the next two reads leave the
		// flush layer and enter the buffer wait.
		s.f.armed = 2
	}
}

// stallStage is batch-only, so it runs on the analysis goroutine. It
// holds the first batch until the kernel goroutine blocks on a free flush
// buffer, and the launch end until the kernel goroutine blocks in a
// barrier, charging a scripted tick to each wait.
type stallStage struct {
	BaseStage
	f       *fakeClock
	batches int
}

func (*stallStage) batchOnly()                                 {}
func (s *stallStage) Name() string                             { return "stall" }
func (s *stallStage) NeedsAccesses() bool                      { return true }
func (s *stallStage) LaunchBegin(string) LaunchAnalysis        { return s }
func (s *stallStage) LaunchEnd(*cuda.APIEvent, LaunchAnalysis) { s.wait(layerDrainWait, 10_000) }

func (s *stallStage) Analyze(*Batch) {
	if s.batches++; s.batches == 1 {
		s.wait(layerBufferWait, 1_000)
	}
}

func (s *stallStage) wait(l layer, d time.Duration) {
	select {
	case <-s.f.blocked:
		s.f.tick(l, d)
	case <-time.After(10 * time.Second):
		// The scripted wait never began; the layer checks report it.
	}
}

// TestLayerClockPartition drives one launch through three flushes — the
// last inside APIEnd — with a forced buffer wait, a barrier that waits
// and a Report, on a fake clock: every layer gets exactly its scripted
// ticks, the layers sum exactly to the wall, and the report's analysis
// time is the sum of the non-program layers.
func TestLayerClockPartition(t *testing.T) {
	f := &fakeClock{blocked: make(chan struct{}, 1)}
	tel := telemetry.New()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{
		BufferRecords: 8, Telemetry: tel, Program: "clock",
		Analyses: []AnalysisFactory{
			func(Env) Analysis { return &scriptStage{f: f} },
			func(Env) Analysis { return &stallStage{f: f} },
		},
	})
	p.clock.reset(f.now)

	f.tick(layerProgram, 3)
	const n = 20 // flushes after records 8 and 16, the last 4 in APIEnd
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	k := &gpu.GoKernel{Name: "k", Func: func(th *gpu.Thread) {
		f.tick(layerProgram, 1)
		th.StoreF32(0, uint64(x)+uint64(4*th.GlobalID()), 1)
	}}
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	f.tick(layerProgram, 3)
	f.armed = 1 // Report's barrier: its first read enters the drain wait
	rep := p.Report()
	end := time.Duration(f.ns.Load())
	// Time after the run belongs to no layer: the wall ends at Report.
	f.ns.Add(1_000_000)
	ov := p.Overhead()
	if again := p.Overhead(); again.Wall != ov.Wall {
		t.Errorf("second Overhead wall %v, first %v", again.Wall, ov.Wall)
	}

	if rep.Stats.BufferFlushes != 3 {
		t.Fatalf("flushes = %d, want 3", rep.Stats.BufferFlushes)
	}
	if ov.Wall != end {
		t.Errorf("wall = %v, want %v", ov.Wall, end)
	}
	var sum, nonProgram time.Duration
	for l, got := range ov.Layers {
		if got.Name != layerNames[l] {
			t.Errorf("layer %d named %q, want %q", l, got.Name, layerNames[l])
		}
		if f.want[l] == 0 {
			t.Errorf("layer %q not exercised by the script", got.Name)
		}
		if got.Time != f.want[l] {
			t.Errorf("layer %q = %v, want %v", got.Name, got.Time, f.want[l])
		}
		sum += got.Time
		if layer(l) != layerProgram {
			nonProgram += got.Time
		}
	}
	if sum != ov.Wall {
		t.Errorf("layers sum to %v, wall %v", sum, ov.Wall)
	}
	if rep.Stats.AnalysisTime != nonProgram {
		t.Errorf("Stats.AnalysisTime = %v, non-program layers %v", rep.Stats.AnalysisTime, nonProgram)
	}
	// The clock feeds the layer timers; no call site keeps its own.
	for name, l := range map[string]layer{
		"collector.flush_capture": layerFlush,
		"sanitizer.buffer_wait":   layerBufferWait,
		"pipeline.drain_wait":     layerDrainWait,
	} {
		if got := tel.Timer(name).Total(); got != f.want[l] {
			t.Errorf("timer %s = %v, want %v", name, got, f.want[l])
		}
	}
	if got := tel.Timer("sanitizer.buffer_wait").Count(); got != 1 {
		t.Errorf("buffer waits observed = %d, want 1", got)
	}
}

// TestLayerSwitchAllocs: a warmed layer switch, with telemetry timers
// attached, allocates nothing.
func TestLayerSwitchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, p := newProfiled(t, Config{Coarse: true, Telemetry: telemetry.New()})
	switchLayers := func() {
		p.clock.enter(p.clock.enter(layerFlush))
		p.clock.stall(true)
		p.clock.stall(false)
	}
	switchLayers()
	if allocs := testing.AllocsPerRun(100, switchLayers); allocs != 0 {
		t.Fatalf("layer switch allocated %.1f times, want 0", allocs)
	}
}
