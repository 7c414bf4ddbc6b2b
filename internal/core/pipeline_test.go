package core

import (
	"bytes"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/workloads"
)

// reportJSON serializes a profiler's report with the one wall-clock field
// (Stats.AnalysisTime) zeroed, so byte comparison tests semantic equality.
func reportJSON(t testing.TB, p *Profiler) []byte {
	t.Helper()
	rep := p.Report()
	rep.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runQuickstart drives a quickstart-style program: host-to-device inputs,
// a saxpy over scalar accesses, a bulk-traffic reduction, a redundant
// memset, and a readback — every analysis path in one run.
func runQuickstart(t testing.TB, rt *cuda.Runtime) {
	t.Helper()
	const n = 4096
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := rt.MallocF32(n, "y")
	sum, _ := rt.MallocF32(1, "sum")

	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 17)
		ys[i] = float32(i)
	}
	if err := rt.CopyF32ToDevice(x, xs); err != nil {
		t.Fatal(err)
	}
	if err := rt.CopyF32ToDevice(y, ys); err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(sum, 0, 4); err != nil {
		t.Fatal(err)
	}

	saxpy := &gpu.GoKernel{
		Name: "saxpy",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			xv := th.LoadF32(0, uint64(x)+uint64(4*i))
			yv := th.LoadF32(1, uint64(y)+uint64(4*i))
			th.CountFP32(2)
			th.StoreF32(2, uint64(y)+uint64(4*i), 2*xv+yv)
		},
	}
	if err := rt.Launch(saxpy, gpu.Dim1(n/128), gpu.Dim1(128)); err != nil {
		t.Fatal(err)
	}

	// Bulk range records exercise the access-time value capture.
	tile := &gpu.GoKernel{
		Name: "tile_sum",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n/256 {
				return
			}
			th.BulkLoad(0, uint64(y)+uint64(4*256*i), 256, 4, gpu.KindFloat)
			th.StoreF32(1, uint64(sum), 0)
		},
	}
	if err := rt.Launch(tile, gpu.Dim1(1), gpu.Dim1(n/256)); err != nil {
		t.Fatal(err)
	}

	// A second saxpy makes the second write pass partially redundant.
	if err := rt.Launch(saxpy, gpu.Dim1(n/128), gpu.Dim1(128)); err != nil {
		t.Fatal(err)
	}

	out := make([]float32, n)
	if err := rt.CopyF32FromDevice(out, y); err != nil {
		t.Fatal(err)
	}
}

// attachMode attaches a profiler that runs its stages on the analysis
// goroutine or, when inline is set, on the kernel-execution goroutine:
// the synchronous reference driver, which makes the same stage calls.
func attachMode(rt *cuda.Runtime, cfg Config, inline bool) *Profiler {
	p := Attach(rt, cfg)
	p.an.inline = inline
	return p
}

// matchesSynchronous runs run under the synchronous reference driver and
// then the asynchronous engine, and fails the test if the two reports
// differ. run must profile from one call site, so the allocation call
// paths the report captures are identical across both runs.
func matchesSynchronous(t *testing.T, run func(inline bool) []byte) {
	t.Helper()
	if ref, got := run(true), run(false); !bytes.Equal(ref, got) {
		t.Error("async report differs from the synchronous reference")
	}
}

// TestPipelineMatchesSynchronous is the async-vs-synchronous oracle: the
// analysis goroutine must emit a report byte-identical to the same stage
// calls made inline. 128-record buffers make every launch span many
// batches, so the analysis goroutine works inside a launch while the
// kernel goroutine keeps collecting.
func TestPipelineMatchesSynchronous(t *testing.T) {
	matchesSynchronous(t, func(inline bool) []byte {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := attachMode(rt, Config{
			Coarse: true, Fine: true, ReuseDistance: true,
			BufferRecords: 128,
			Program:       "quickstart",
		}, inline)
		runQuickstart(t, rt)
		p.Detach()
		return reportJSON(t, p)
	})
}

// TestPipelineMatchesSynchronousDarknet repeats the oracle on the
// bundled Darknet reproduction, whose layers mix memsets, uniform
// copies, gemm-style kernels and activation sweeps.
func TestPipelineMatchesSynchronousDarknet(t *testing.T) {
	w, err := workloads.Lookup("Darknet", 16)
	if err != nil {
		t.Fatal(err)
	}
	matchesSynchronous(t, func(inline bool) []byte {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := attachMode(rt, Config{
			Coarse: true, Fine: true,
			BufferRecords: 128,
			Program:       "Darknet",
		}, inline)
		if err := w.Run(rt, workloads.Original); err != nil {
			t.Fatal(err)
		}
		p.Detach()
		return reportJSON(t, p)
	})
}

// TestPipelineStress hammers the hand-off: a buffer so small every few
// accesses flush it and several launches back-to-back, so the kernel
// goroutine keeps every flush buffer in flight and waits on the analysis
// goroutine, all under the same byte-identity requirement.
func TestPipelineStress(t *testing.T) {
	matchesSynchronous(t, func(inline bool) []byte {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := attachMode(rt, Config{
			Coarse: true, Fine: true, ReuseDistance: true,
			BufferRecords: 8,
			Program:       "stress",
		}, inline)
		const n = 2048
		x, err := rt.MallocF32(n, "x")
		if err != nil {
			t.Fatal(err)
		}
		k := &gpu.GoKernel{
			Name: "churn",
			Func: func(th *gpu.Thread) {
				i := th.GlobalID()
				if i >= n {
					return
				}
				th.StoreF32(0, uint64(x)+uint64(4*i), float32(i%7))
				th.LoadF32(1, uint64(x)+uint64(4*i))
			},
		}
		for l := 0; l < 4; l++ {
			if err := rt.Launch(k, gpu.Dim1(16), gpu.Dim1(128)); err != nil {
				t.Fatal(err)
			}
		}
		p.Detach()
		return reportJSON(t, p)
	})
}

// TestFailedLaunchDrainsPipeline checks the interceptor lifecycle: a
// kernel faulting mid-execution never reaches APIEnd, so the runtime must
// drain the profiler, which discards the partial launch and returns its
// buffers; the next launch then profiles normally.
func TestFailedLaunchDrainsPipeline(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true, BufferRecords: 4})
	const n = 64
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	bad := &gpu.GoKernel{
		Name: "bad",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			th.StoreF32(0, uint64(x)+uint64(4*(i%n)), 1)
			if i == 32 {
				th.LoadF32(1, 0xdead) // unmapped: kernel fault
			}
		},
	}
	if err := rt.Launch(bad, gpu.Dim1(1), gpu.Dim1(64)); err == nil {
		t.Fatal("faulting kernel did not error")
	}
	if p.launch != nil {
		t.Fatal("stale launch state survived a failed launch")
	}
	if err := rt.Launch(fillKernel(x, 2, n), gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	var fills int
	for _, f := range rep.Fine {
		if f.Kernel == "fill_kernel" && f.Stores == n {
			fills++
		}
	}
	if fills != 1 {
		t.Fatalf("fine records after recovery = %+v", rep.Fine)
	}
	p.Detach()
}

// TestBulkRangeLoadValues checks that compacted load-range records feed
// the fine accumulator with real element values via the one-bulk-read
// capture (not one device read per element).
func TestBulkRangeLoadValues(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true})
	const n = 64
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	host := make([]float32, n)
	for i := range host {
		host[i] = 2.5
	}
	if err := rt.CopyF32ToDevice(x, host); err != nil {
		t.Fatal(err)
	}
	k := &gpu.GoKernel{
		Name: "bulk",
		Func: func(th *gpu.Thread) {
			if th.GlobalID() == 0 {
				th.BulkLoad(0, uint64(x), n, 4, gpu.KindFloat)
			}
		},
	}
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(1)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Fine) != 1 {
		t.Fatalf("fine records = %+v", rep.Fine)
	}
	f := rep.Fine[0]
	if f.Loads != n || f.Distinct != 1 || len(f.TopValues) != 1 || f.TopValues[0].Count != n {
		t.Fatalf("bulk load record = %+v", f)
	}
	if !rep.PatternSet()["single value"] {
		t.Fatalf("patterns = %v", rep.PatternSet())
	}
}

// TestReuseLineAccountingUnaligned: an access straddling a cache-line
// boundary must touch both covered lines exactly once (the old code
// stepped from the unaligned start and missed the trailing line).
func TestReuseLineAccountingUnaligned(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true, ReuseDistance: true})
	x, err := rt.MallocF32(64, "x") // 256-aligned base
	if err != nil {
		t.Fatal(err)
	}
	k := &gpu.GoKernel{
		Name: "straddle",
		Func: func(th *gpu.Thread) {
			if th.GlobalID() != 0 {
				return
			}
			// Bytes 28..35 cover lines [0,32) and [32,64).
			th.StoreF64(0, uint64(x)+28, 1.5)
			th.StoreF64(1, uint64(x)+28, 2.5)
		},
	}
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(1)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Reuse) != 1 {
		t.Fatalf("reuse records = %+v", rep.Reuse)
	}
	r := rep.Reuse[0]
	// Two stores x two covered lines: 4 touches, first pair cold.
	if r.Accesses != 4 || r.ColdMisses != 2 {
		t.Fatalf("line touches = %d (cold %d), want 4 (cold 2)", r.Accesses, r.ColdMisses)
	}
}
