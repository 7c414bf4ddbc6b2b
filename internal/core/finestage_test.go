package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/vpattern"
)

// testFineBatch synthesizes a resolved batch of n records over a handful
// of objects, mixing plain accesses with compacted store ranges and load
// ranges of every width and kind, captured or not, the shapes the fine
// stage ingests.
func testFineBatch(rng *rand.Rand, n int) *Batch {
	recs := make([]gpu.Access, n)
	for i := range recs {
		a := gpu.Access{
			Addr: uint64(rng.Intn(1<<14)) * 4, Size: 4, Kind: gpu.KindFloat,
			Raw: gpu.RawFromFloat32(float32(rng.Intn(32)) * 0.5), Store: rng.Intn(2) == 0,
		}
		if i%97 == 0 { // compacted store range: value repeats per element
			a.Store = true
			a.Count = 4
		}
		a.Obj = int32(rng.Intn(4))
		recs[i] = a
	}
	// Load ranges spread over the batch, so a launch split into several
	// batches decodes them in different ones. All but the last carry a
	// capture.
	loads := []gpu.Access{
		{Addr: 0x100, Size: 4, Kind: gpu.KindUint, Count: 3},
		{Addr: 0x200, Size: 1, Kind: gpu.KindUint, Count: 40},
		{Addr: 0x300, Size: 2, Kind: gpu.KindInt, Count: 17},
		{Addr: 0x400, Size: 8, Kind: gpu.KindInt, Count: 9},
		{Addr: 0x500, Size: 8, Kind: gpu.KindFloat, Count: 33},
		{Addr: 0x600, Size: 4, Kind: gpu.KindFloat, Count: 5},
	}
	vals := make([][]byte, n)
	for j, a := range loads {
		i := 1 + j*(n/len(loads))
		a.Obj = recs[i].Obj
		recs[i] = a
		if j == len(loads)-1 {
			break // no capture
		}
		for e := 0; e < a.Elems(); e++ {
			var elem [8]byte
			v := uint64(rng.Intn(8))
			if a.Kind == gpu.KindFloat {
				v = gpu.RawFromFloat64(float64(v) * 0.25)
			}
			binary.LittleEndian.PutUint64(elem[:], v)
			vals[i] = append(vals[i], elem[:a.Size]...)
		}
	}
	b := &Batch{}
	for i, a := range recs {
		b.Append(a, vals[i])
	}
	return b
}

// withSweep appends to b a store sweep of linear values over object 4,
// so the structured-values detector fires and its float sums show in the
// report.
func withSweep(b *Batch, n int) *Batch {
	for k := 0; k < n; k++ {
		b.Append(gpu.Access{
			Addr: 0x10000 + uint64(4*k), Size: 4, Kind: gpu.KindFloat, Store: true,
			Raw: gpu.RawFromFloat32(0.1*float32(k) + 3), Obj: 4,
		}, nil)
	}
	return b
}

// TestFineCompactAllocsFree: once warm, the hand-off of a flushed batch
// allocates nothing: the sanitizer hook's completion of each record, the
// kernel goroutine's flush and submit, and the analysis goroutine's fine
// analysis and recycle of the batch.
func TestFineCompactAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates around goroutine hand-offs")
	}
	const n = 2048
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true, BufferRecords: n})
	defer p.Detach()
	base, err := rt.Malloc(1<<17, "x")
	if err != nil {
		t.Fatal(err)
	}
	b := testFineBatch(rand.New(rand.NewSource(31)), n)
	recs := append([]gpu.Access(nil), b.Recs...)
	for i := range recs {
		recs[i].Addr += uint64(base)
	}
	hook, _ := p.Instrumentation("k")
	handOff := func() { // one full buffer: one flush
		for _, a := range recs {
			hook(a)
		}
		p.an.wait()
	}
	handOff() // warm the flush buffer and the launch accumulator
	if allocs := testing.AllocsPerRun(20, handOff); allocs != 0 {
		t.Fatalf("hand-off allocated %.1f times per warmed batch, want 0", allocs)
	}
}

// TestChunkedCompactMatchesSequential: a launch whose records arrive in
// many small batches must finalize exactly as one batch of the same
// records, histogram cap or not: the fine stage sees a launch's accesses
// once, in order, whatever the flush boundaries, so even the
// structured-values float sums, which depend on addition order, match.
// Each chunking runs on a fresh stage: a stage's reports alias its one
// accumulator.
func TestChunkedCompactMatchesSequential(t *testing.T) {
	b := withSweep(testFineBatch(rand.New(rand.NewSource(37)), 3*4096+123), 500)
	n := len(b.Recs)
	for _, fc := range []vpattern.FineConfig{{}, {MaxTrackedValues: 8}} {
		launch := func(chunk int) []vpattern.FineReport {
			st := newFineStage(Env{Cfg: &Config{FineConfig: fc}})
			la := st.LaunchBegin("k")
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				part := &Batch{}
				for i := lo; i < hi; i++ {
					part.Append(b.Recs[i], b.RangeVal(i))
				}
				la.Analyze(part)
			}
			return st.acc.Finalize()
		}
		want := launch(n)
		if !hasPattern(want, vpattern.StructuredValues) {
			t.Fatalf("cap %d: the sweep shows no structured values", fc.MaxTrackedValues)
		}
		for _, chunk := range []int{1, 7, 128, 4096} {
			if got := launch(chunk); !reflect.DeepEqual(want, got) {
				t.Errorf("cap %d, %d-record batches: launch diverged from one batch", fc.MaxTrackedValues, chunk)
			}
		}
	}
}

// accProbe is a batch-only stage registered after the fine stage, so it
// runs on the analysis goroutine right behind it: it counts the batches
// that went into each fine accumulator.
type accProbe struct {
	BaseStage
	fine *fineStage
	seen map[*vpattern.FineAccumulator]int
}

func (s *accProbe) Name() string                      { return "fine accumulator probe" }
func (s *accProbe) NeedsAccesses() bool               { return true }
func (s *accProbe) batchOnly()                        {}
func (s *accProbe) LaunchBegin(string) LaunchAnalysis { return s }
func (s *accProbe) Analyze(*Batch)                    { s.seen[s.fine.acc]++ }

// TestFineLaunchReuse: the fine stage keeps one accumulator for every
// launch, so a launch's records must not depend on what earlier launches
// left behind. A kernel that faults mid-execution after a flush (Drain
// discards its analysis, and its batches never reach LaunchEnd) and one
// that is sampled out come before a clean launch, whose fine records
// must equal a fresh profiler's, and every batch of both runs must go
// into one accumulator. The kernel reads distinct values and writes the
// same ones on every launch.
func TestFineLaunchReuse(t *testing.T) {
	const n = 2048
	profileLaunches := func(launches int, plan *faultinject.Plan) []profile.FineRecord {
		var rep *profile.Report
		probe := &accProbe{seen: map[*vpattern.FineAccumulator]int{}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // a fresh goroutine, so both runs share call paths
			defer wg.Done()
			rt := cuda.NewRuntime(gpu.RTX2080Ti)
			rt.ArmFaults(plan)
			p := Attach(rt, Config{Fine: true, BufferRecords: 64, KernelSamplingPeriod: 2,
				Analyses: []AnalysisFactory{func(Env) Analysis { return probe }}})
			defer p.Detach()
			probe.fine = p.stages[0].(*fineStage)
			x, _ := rt.MallocF32(n, "x")
			y, _ := rt.MallocF32(n, "y")
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = float32(i%700) * 0.5
			}
			if err := rt.CopyF32ToDevice(x, xs); err != nil {
				t.Error(err)
				return
			}
			k := &gpu.GoKernel{Name: "scale", Func: func(th *gpu.Thread) {
				i := uint64(th.GlobalID())
				th.StoreF32(1, uint64(y)+4*i, 2*th.LoadF32(0, uint64(x)+4*i)+1)
			}}
			for l := 0; l < launches; l++ {
				_ = rt.Launch(k, gpu.Dim1(n/128), gpu.Dim1(128))
			}
			rep = p.Report()
		}()
		wg.Wait()
		if rep == nil || len(rep.Fine) == 0 {
			t.Fatalf("%d launches: no fine records", launches)
		}
		if len(probe.seen) != 1 {
			t.Fatalf("%d launches went into %d fine accumulators, want 1", launches, len(probe.seen))
		}
		for i := range rep.Fine {
			rep.Fine[i].Seq = 0 // the reused run's launch comes later in the stream
		}
		return rep.Fine
	}
	fresh := profileLaunches(1, nil)
	reused := profileLaunches(3, faultinject.New().FailLaunchNth(1, 100))
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("clean launch after a faulted and a sampled-out one:\n%+v\nfresh profiler:\n%+v", reused, fresh)
	}
}

func hasPattern(reps []vpattern.FineReport, k vpattern.Kind) bool {
	for i := range reps {
		if reps[i].HasPattern(k) {
			return true
		}
	}
	return false
}
