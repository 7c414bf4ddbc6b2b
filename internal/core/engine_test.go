package core

import (
	"bytes"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/profile"
	"valueexpert/internal/workloads"
)

// TestDrainIdempotent: Drain must be safe with no launch in flight and
// when called repeatedly, and the profiler must keep working afterwards.
func TestDrainIdempotent(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true, BufferRecords: 8})

	p.Drain() // nothing in flight
	p.Drain()

	const n = 64
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(fillKernel(x, 1, n), gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	p.Drain() // launch already completed: still nothing in flight
	p.Drain()

	if err := rt.Launch(fillKernel(x, 2, n), gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Fine) != 2 {
		t.Fatalf("fine records after drains = %+v", rep.Fine)
	}
	p.Detach()
}

// countingStage is a custom Analysis registered through Config.Analyses:
// it counts instrumented accesses per kernel without touching any engine
// code — the plug-in contract the stage interface exists for.
type countingStage struct {
	BaseStage
	launches int
	accesses uint64
	finished bool
}

func (s *countingStage) Name() string        { return "counting" }
func (s *countingStage) NeedsAccesses() bool { return true }

type countingLaunch struct {
	s     *countingStage
	total uint64
}

func (s *countingStage) LaunchBegin(string) LaunchAnalysis { return &countingLaunch{s: s} }

func (la *countingLaunch) Analyze(b *Batch) { la.total += uint64(len(b.Recs)) }

func (s *countingStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil {
		return
	}
	s.launches++
	s.accesses += la.(*countingLaunch).total
}

func (s *countingStage) Finish(*profile.Report) { s.finished = true }

// TestCustomAnalysisStage: a stage registered via Config.Analyses drives
// instrumentation by itself (all built-in analyses off) and sees the full
// access stream.
func TestCustomAnalysisStage(t *testing.T) {
	st := &countingStage{}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{
		BufferRecords: 16,
		Analyses:      []AnalysisFactory{func(Env) Analysis { return st }},
	})
	const n = 256
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		if err := rt.Launch(fillKernel(x, float32(l), n), gpu.Dim1(2), gpu.Dim1(n/2)); err != nil {
			t.Fatal(err)
		}
	}
	p.Report()
	if st.launches != 3 || st.accesses != 3*n || !st.finished {
		t.Fatalf("custom stage saw launches=%d accesses=%d finished=%v",
			st.launches, st.accesses, st.finished)
	}
	p.Detach()
}

// TestConcurrentSessionsByteIdentical: two Sessions profiling different
// workloads at the same time each run their own merge pools, and each
// must still emit a report byte-identical to its solo run. Run under
// -race this also proves the engines share no mutable state.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	cfg := Config{
		Coarse: true, Fine: true,
		BufferRecords: 512,
	}
	// One profiling closure per workload: a single call site keeps the
	// captured allocation call paths identical between solo and
	// concurrent runs.
	profileWorkload := func(t *testing.T, name string) []byte {
		w, err := workloads.Lookup(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Program = name
		s, err := NewSession(c, gpu.RTX2080Ti)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(s.Runtime(0), workloads.Original); err != nil {
			t.Error(err)
			return nil
		}
		return reportJSON(t, s.Profiler(0))
	}

	// Every run — solo or concurrent — starts from this one goroutine
	// entry, so the Go call stacks the report's allocation call paths
	// capture are identical in both modes.
	var wg sync.WaitGroup
	launch := func(name string, out *[]byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*out = profileWorkload(t, name)
		}()
	}

	var soloA, soloB, concA, concB []byte
	launch("Darknet", &soloA)
	wg.Wait()
	launch("PyTorch-Bert", &soloB)
	wg.Wait()
	launch("Darknet", &concA)
	launch("PyTorch-Bert", &concB)
	wg.Wait()

	if !bytes.Equal(soloA, concA) {
		t.Error("Darknet report under concurrent sessions differs from its solo run")
	}
	if !bytes.Equal(soloB, concB) {
		t.Error("PyTorch-Bert report under concurrent sessions differs from its solo run")
	}
}
