package gvprof

import (
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
)

func TestTemporalStoreRedundancy(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt)
	const n = 64
	x, _ := rt.MallocF32(n, "x")
	k := &gpu.GoKernel{
		Name: "writer",
		Func: func(th *gpu.Thread) {
			t := th.GlobalID()
			if t >= n {
				return
			}
			th.StoreF32(0, uint64(x)+uint64(4*t), 1.0)
		},
	}
	// First launch: stores to undefined addresses, no temporal redundancy.
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	// Second launch: same values to same addresses — all temporal.
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	res := p.Results()
	if len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	r := res[0]
	if r.Stores != 2*n || r.TemporalStores != n {
		t.Fatalf("redundancy = %+v, want %d stores with %d temporal", r, 2*n, n)
	}
	// Spatial: consecutive identical stores within the stream.
	if r.SpatialStores == 0 {
		t.Fatal("uniform stores should show spatial redundancy")
	}
	// Each launch drains its n records in one call, then copies x whole.
	prof := rt.Device().Prof
	want := 2 * (prof.CopyCost(n*RecordBytes, gpu.CopyDeviceToHost) + prof.CopyCost(4*n, gpu.CopyDeviceToHost))
	if p.CopyTime() != want {
		t.Fatalf("copy time = %v, want %v", p.CopyTime(), want)
	}
}

func TestTemporalLoadRedundancy(t *testing.T) {
	rt := cuda.NewRuntime(gpu.A100)
	p := Attach(rt)
	const n = 32
	x, _ := rt.MallocF32(n, "x")
	k := &gpu.GoKernel{
		Name: "reader",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			_ = th.LoadF32(0, uint64(x)+uint64(4*i))
		},
	}
	for i := 0; i < 3; i++ {
		if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(n)); err != nil {
			t.Fatal(err)
		}
	}
	r := p.Results()[0]
	if r.Loads != 3*n || r.TemporalLoads != 2*n {
		t.Fatalf("loads = %+v", r)
	}
}

func TestDirectCopyAfterEveryKernel(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt)
	if _, err := rt.Malloc(1<<16, "big"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Malloc(1<<10, "small"); err != nil {
		t.Fatal(err)
	}
	k := &gpu.GoKernel{Name: "noop", Func: func(*gpu.Thread) {}}
	for i := 0; i < 4; i++ {
		if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Whole-object copies after each of the 4 launches, one call each.
	prof := rt.Device().Prof
	want := 4 * (prof.CopyCost(1<<16, gpu.CopyDeviceToHost) + prof.CopyCost(1<<10, gpu.CopyDeviceToHost))
	if p.CopyTime() != want {
		t.Fatalf("copy time = %v, want %v", p.CopyTime(), want)
	}
}

// GVProf has no warp compaction: a compacted range record from a bulk
// accessor must be expanded and analyzed per element.
func TestRangeRecordExpansion(t *testing.T) {
	rt := cuda.NewRuntime(gpu.A100)
	p := Attach(rt)
	const n = 256
	x, _ := rt.MallocF32(n, "x")
	k := &gpu.GoKernel{
		Name: "bulkfill",
		Func: func(th *gpu.Thread) {
			if th.GlobalID() != 0 {
				return
			}
			th.BulkFill(0, uint64(x), n, 4, gpu.KindFloat, gpu.RawFromFloat32(2))
			th.BulkLoad(1, uint64(x), n, 4, gpu.KindFloat)
		},
	}
	// Twice: second round is fully temporally redundant.
	for i := 0; i < 2; i++ {
		if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(1)); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Results()
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	var stores, loads *Redundancy
	for i := range res {
		if res[i].Stores > 0 {
			stores = &res[i]
		} else {
			loads = &res[i]
		}
	}
	if stores == nil || loads == nil {
		t.Fatalf("missing instruction rows: %+v", res)
	}
	if stores.Stores != 2*n || stores.TemporalStores != n {
		t.Fatalf("store expansion = %+v", stores)
	}
	if loads.Loads != 2*n || loads.TemporalLoads != n {
		t.Fatalf("load expansion = %+v", loads)
	}
}

func TestSummaryAndDetach(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt)
	x, _ := rt.MallocF32(8, "x")
	k := &gpu.GoKernel{
		Name: "w",
		Func: func(th *gpu.Thread) { th.StoreF32(0, uint64(x), 0) },
	}
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(4)); err != nil {
		t.Fatal(err)
	}
	s := p.Summary(5)
	if !strings.Contains(s, "GVProf") || !strings.Contains(s, "pc=0") {
		t.Fatalf("summary = %q", s)
	}
	p.Detach()
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(4)); err != nil {
		t.Fatal(err)
	}
	if p.Results()[0].Stores != 4 {
		t.Fatal("profiling continued after detach")
	}
}
