package core

import (
	"strings"
	"testing"
	"time"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/interval"
	"valueexpert/internal/vflow"
	"valueexpert/internal/workloads"
)

func fillKernel(dst cuda.DevPtr, val float32, n int) *gpu.GoKernel {
	return &gpu.GoKernel{
		Name: "fill_kernel",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			t.StoreF32(0, uint64(dst)+uint64(4*i), val)
		},
	}
}

func axpyKernel(name string, x, y cuda.DevPtr, a float32, n int) *gpu.GoKernel {
	return &gpu.GoKernel{
		Name: name,
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			xv := t.LoadF32(0, uint64(x)+uint64(4*i))
			yv := t.LoadF32(1, uint64(y)+uint64(4*i))
			t.CountFP32(2)
			t.StoreF32(2, uint64(y)+uint64(4*i), a*xv+yv)
		},
	}
}

func newProfiled(t *testing.T, cfg Config) (*cuda.Runtime, *Profiler) {
	t.Helper()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	if cfg.Program == "" {
		cfg.Program = "test"
	}
	p := Attach(rt, cfg)
	return rt, p
}

// TestCoarseRedundantMemset reproduces the double-initialization motif:
// memset zeros then a kernel writing zeros again — the second write is
// 100% redundant (Deepwave's zeros_like + zero_(), §8.2).
func TestCoarseRedundantMemset(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, Fine: true})
	const n = 1024
	x, err := rt.MallocF32(n, "gradInput")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(x, 0, 4*n); err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(fillKernel(x, 0, n), gpu.Dim1(8), gpu.Dim1(128)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()

	// The kernel's coarse record must be fully redundant.
	var found bool
	for _, c := range rep.Coarse {
		if c.Name != "fill_kernel" {
			continue
		}
		found = true
		if len(c.Objects) != 1 {
			t.Fatalf("objects = %+v", c.Objects)
		}
		oa := c.Objects[0]
		if !oa.Redundant || oa.WrittenBytes != 4*n || oa.UnchangedBytes != 4*n {
			t.Fatalf("access = %+v", oa)
		}
	}
	if !found {
		t.Fatal("kernel coarse record missing")
	}

	// Fine analysis sees single zero.
	fine := rep.FineFor("fill_kernel")
	if len(fine) != 1 {
		t.Fatalf("fine records = %+v", fine)
	}
	pats := rep.PatternSet()
	if !pats["single zero"] || !pats["single value"] || !pats["redundant values"] {
		t.Fatalf("patterns = %v", pats)
	}

	// Graph: alloc -> memset -> kernel chain on the object, with the
	// kernel's write edge fully redundant.
	g := p.Graph()
	var redEdges int
	for _, e := range g.Edges() {
		if e.Op == vflow.OpWrite && e.RedundantFraction() == 1 {
			redEdges++
		}
	}
	if redEdges != 1 {
		t.Fatalf("fully-redundant write edges = %d, want 1:\n%s", redEdges, g.Summary())
	}
}

// TestDuplicateAcrossObjects reproduces Darknet Inefficiency II: the same
// host zeros copied into two device arrays makes them duplicates.
func TestDuplicateAcrossObjects(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true})
	const n = 256
	a, _ := rt.MallocF32(n, "l.output_gpu")
	b, _ := rt.MallocF32(n, "l.x_gpu")
	host := make([]float32, n) // zeros, like xcalloc's result
	if err := rt.CopyF32ToDevice(a, host); err != nil {
		t.Fatal(err)
	}
	if err := rt.CopyF32ToDevice(b, host); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.DuplicateGroups) != 1 || len(rep.DuplicateGroups[0]) != 2 {
		t.Fatalf("duplicate groups = %v", rep.DuplicateGroups)
	}
	// Both H2D copies move uniform (all-zero) host bytes: ValueExpert
	// flags them as memset-able transfers, the Inefficiency II guidance.
	var uniformCopies int
	for _, c := range rep.Coarse {
		if c.API != "cudaMemcpy" {
			continue
		}
		for _, oa := range c.Objects {
			if oa.UniformCopy {
				uniformCopies++
			}
		}
	}
	if uniformCopies != 2 {
		t.Fatalf("uniform H2D copies = %d, want 2", uniformCopies)
	}
	// And the value flow graph paints both copy edges fully red.
	var redCopies int
	for _, e := range p.Graph().Edges() {
		if e.Op == vflow.OpWrite && e.RedundantFraction() == 1 {
			redCopies++
		}
	}
	if redCopies != 2 {
		t.Fatalf("red copy edges = %d, want 2:\n%s", redCopies, p.Graph().Summary())
	}
}

func TestUniformBytes(t *testing.T) {
	long := make([]byte, 4097)
	for i := range long {
		long[i] = 7
	}
	first := append([]byte{8}, long[1:]...)
	last := append(append([]byte(nil), long[:len(long)-1]...), 8)
	for _, c := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"empty", nil, false},
		{"one byte", []byte{3}, true},
		{"long uniform", long, true},
		{"differs at first byte", first, false},
		{"differs at last byte", last, false},
	} {
		if got := uniformBytes(c.b); got != c.want {
			t.Errorf("%s: uniformBytes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReadEdgesAndHostSink(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true})
	const n = 128
	x, _ := rt.MallocF32(n, "x")
	y, _ := rt.MallocF32(n, "y")
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	if err := rt.CopyF32ToDevice(x, xs); err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(y, 0, 4*n); err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(axpyKernel("axpy", x, y, 2, n), gpu.Dim1(1), gpu.Dim1(n)); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, n)
	if err := rt.CopyF32FromDevice(out, y); err != nil {
		t.Fatal(err)
	}
	if out[10] != 20 {
		t.Fatalf("computation wrong: out[10] = %v", out[10])
	}
	g := p.Graph()
	// Kernel reads x (green edge from the H2D copy vertex) and the D2H
	// copy reads y producing a host sink edge.
	var kernelRead, hostSink bool
	for _, e := range g.Edges() {
		if e.Op == vflow.OpRead && e.To != vflow.HostVertex {
			if from, _ := g.Vertex(e.From); from.Kind == vflow.KindMemcpy {
				kernelRead = true
			}
		}
		if e.To == vflow.HostVertex {
			hostSink = true
		}
	}
	if !kernelRead || !hostSink {
		t.Fatalf("graph missing read/sink edges:\n%s", g.Summary())
	}
}

func TestFineOnlyModeSkipsCoarse(t *testing.T) {
	rt, p := newProfiled(t, Config{Fine: true})
	x, _ := rt.MallocF32(64, "x")
	if err := rt.Launch(fillKernel(x, 1, 64), gpu.Dim1(1), gpu.Dim1(64)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Coarse) != 0 {
		t.Fatalf("coarse records in fine-only mode: %+v", rep.Coarse)
	}
	if len(rep.Fine) != 1 {
		t.Fatalf("fine records = %+v", rep.Fine)
	}
	if rep.Fine[0].Stores != 64 {
		t.Fatalf("fine record = %+v", rep.Fine[0])
	}
}

func TestKernelFilterLimitsFineAnalysis(t *testing.T) {
	rt, p := newProfiled(t, Config{
		Fine:         true,
		KernelFilter: func(name string) bool { return name == "hot" },
	})
	x, _ := rt.MallocF32(64, "x")
	hot := fillKernel(x, 1, 64)
	hot.Name = "hot"
	cold := fillKernel(x, 2, 64)
	cold.Name = "cold"
	for i := 0; i < 3; i++ {
		if err := rt.Launch(cold, gpu.Dim1(1), gpu.Dim1(64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Launch(hot, gpu.Dim1(1), gpu.Dim1(64)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	for _, f := range rep.Fine {
		if f.Kernel != "hot" {
			t.Fatalf("filtered kernel analyzed: %+v", f)
		}
	}
	if rep.Stats.LaunchesProfiled != 1 || rep.Stats.KernelLaunches != 4 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
}

func TestKernelSamplingReducesRecords(t *testing.T) {
	run := func(period int) uint64 {
		rt, p := newProfiled(t, Config{Fine: true, KernelSamplingPeriod: period})
		x, _ := rt.MallocF32(64, "x")
		k := fillKernel(x, 1, 64)
		for i := 0; i < 10; i++ {
			if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(64)); err != nil {
				t.Fatal(err)
			}
		}
		return p.Report().Stats.AccessRecords
	}
	all := run(1)
	sampled := run(5)
	if sampled*4 > all {
		t.Fatalf("sampling ineffective: %d vs %d", sampled, all)
	}
}

func TestBlockSamplingPartialDiff(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, BlockSamplingPeriod: 2})
	const n = 256
	x, _ := rt.MallocF32(n, "x")
	if err := rt.Launch(fillKernel(x, 3, n), gpu.Dim1(4), gpu.Dim1(64)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	// Only half the blocks were instrumented, so the coarse record covers
	// half the bytes.
	var wb uint64
	for _, c := range rep.Coarse {
		for _, oa := range c.Objects {
			wb += oa.WrittenBytes
		}
	}
	if wb != 4*n/2 {
		t.Fatalf("written bytes with block sampling = %d, want %d", wb, 4*n/2)
	}
}

func TestSampledOutLaunchStillInGraph(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, KernelSamplingPeriod: 2})
	x, _ := rt.MallocF32(64, "x")
	k := fillKernel(x, 1, 64)
	for i := 0; i < 2; i++ {
		if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(64)); err != nil {
			t.Fatal(err)
		}
	}
	g := p.Graph()
	var kernelVtx *vflow.Vertex
	for _, v := range g.Vertices() {
		if v.Kind == vflow.KindKernel {
			vv := v
			kernelVtx = &vv
		}
	}
	if kernelVtx == nil || kernelVtx.Invocations != 2 {
		t.Fatalf("kernel vertex = %+v, want 2 invocations", kernelVtx)
	}
}

func TestObjectMetadataAndCallPaths(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true})
	rt.InFrame(callpath.Frame{Func: "make_convolutional_layer", File: "convolutional_layer.c", Line: 553}, func() {
		if _, err := rt.MallocF32(16, "l.output_gpu"); err != nil {
			t.Fatal(err)
		}
	})
	rep := p.Report()
	if len(rep.Objects) != 1 {
		t.Fatalf("objects = %+v", rep.Objects)
	}
	o := rep.Objects[0]
	if o.Tag != "l.output_gpu" || o.Size != 64 ||
		!strings.Contains(o.CallPath, "convolutional_layer.c:553") {
		t.Fatalf("object = %+v", o)
	}
}

func TestFreeDropsSnapshot(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true})
	x, _ := rt.MallocF32(16, "x")
	if len(p.coarse.snapshots) != 1 {
		t.Fatal("snapshot not created")
	}
	if err := rt.Free(x); err != nil {
		t.Fatal(err)
	}
	if len(p.coarse.snapshots) != 0 {
		t.Fatal("snapshot not dropped on free")
	}
}

// TestFreedSnapshotsReleased runs a malloc/upload/free loop over 256 KiB
// buffers, half of them zeros like a live object and half of unique
// contents: every freed object keeps its duplicate-group membership, but
// the bytes the tracker holds stay within the live object's snapshot.
func TestFreedSnapshotsReleased(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true})
	const n, loops = 64 << 10, 64
	live, _ := rt.MallocF32(n, "live")
	host := make([]float32, n)
	if err := rt.CopyF32ToDevice(live, host); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < loops; i++ {
		for j := range host {
			host[j] = float32(i%2) * float32(i*n+j)
		}
		x, err := rt.MallocF32(n, "tmp")
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.CopyF32ToDevice(x, host); err != nil {
			t.Fatal(err)
		}
		if err := rt.Free(x); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*byte]bool{}
	tracked, held := 0, 0
	p.coarse.dup.Each(func(_ int, _ uint64, b []byte) {
		tracked++
		if len(b) > 0 && !seen[&b[0]] {
			seen[&b[0]] = true
			held += len(b)
		}
	})
	if tracked != 1+loops {
		t.Fatalf("tracked objects = %d, want %d", tracked, 1+loops)
	}
	if held > 4*n {
		t.Fatalf("tracker holds %d snapshot bytes after %d frees, want at most the live object's %d", held, loops, 4*n)
	}
	rep := p.Report()
	if len(rep.DuplicateGroups) != 1 || len(rep.DuplicateGroups[0]) != 1+loops/2 {
		t.Fatalf("duplicate groups = %v, want the live object with the %d zero-filled temporaries", rep.DuplicateGroups, loops/2)
	}
}

func TestCopyStrategiesProduceSameDiffs(t *testing.T) {
	for _, strat := range []interval.CopyStrategy{
		interval.DirectCopy, interval.MinMaxCopy, interval.SegmentCopy, interval.AdaptiveCopy,
	} {
		rt, p := newProfiled(t, Config{Coarse: true, CopyStrategy: strat})
		const n = 512
		x, _ := rt.MallocF32(n, "x")
		if err := rt.Memset(x, 0, 4*n); err != nil {
			t.Fatal(err)
		}
		// Strided kernel: touch every 4th element.
		k := &gpu.GoKernel{
			Name: "stride",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID() * 4
				if i >= n {
					return
				}
				t.StoreF32(0, uint64(x)+uint64(4*i), 0) // redundant zeros
			},
		}
		if err := rt.Launch(k, gpu.Dim1(2), gpu.Dim1(64)); err != nil {
			t.Fatal(err)
		}
		rep := p.Report()
		var got *struct{ w, u uint64 }
		for _, c := range rep.Coarse {
			if c.Name != "stride" {
				continue
			}
			for _, oa := range c.Objects {
				got = &struct{ w, u uint64 }{oa.WrittenBytes, oa.UnchangedBytes}
			}
		}
		if got == nil || got.w != 4*128 || got.u != got.w {
			t.Fatalf("strategy %v: diff = %+v", strat, got)
		}
		if p.Overhead().SnapshotTime <= 0 {
			t.Fatalf("strategy %v: no snapshot copy cost", strat)
		}
	}
}

// TestAdaptiveCopyNoDearerThanMinMax: on Rodinia/bfs, whose frontier
// writes leave many small gaps, adaptive copy's snapshot time is at most
// min-max's: each refresh runs the cheaper of the min-max and segment
// plans, so paying a call latency per tiny segment can never win.
func TestAdaptiveCopyNoDearerThanMinMax(t *testing.T) {
	w, err := workloads.Lookup("Rodinia/bfs", 16)
	if err != nil {
		t.Fatal(err)
	}
	snapshotTime := func(strat interval.CopyStrategy) time.Duration {
		rt, p := newProfiled(t, Config{Coarse: true, Fine: true, Program: w.Name(), CopyStrategy: strat})
		if err := w.Run(rt, workloads.Original); err != nil {
			t.Fatal(err)
		}
		p.Detach()
		return p.Overhead().SnapshotTime
	}
	if ad, mm := snapshotTime(interval.AdaptiveCopy), snapshotTime(interval.MinMaxCopy); ad > mm {
		t.Fatalf("adaptive snapshot time %v exceeds min-max's %v", ad, mm)
	}
}

func TestDetachStopsProfiling(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, Fine: true})
	x, _ := rt.MallocF32(16, "x")
	p.Detach()
	if err := rt.Launch(fillKernel(x, 1, 16), gpu.Dim1(1), gpu.Dim1(16)); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Fine) != 0 {
		t.Fatal("profiling continued after detach")
	}
	if p.String() == "" {
		t.Fatal("String()")
	}
}

func TestAnalysisTimeAccrues(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, Fine: true})
	x, _ := rt.MallocF32(4096, "x")
	if err := rt.Launch(fillKernel(x, 1, 4096), gpu.Dim1(32), gpu.Dim1(128)); err != nil {
		t.Fatal(err)
	}
	got := p.Report().Stats.AnalysisTime
	if got <= 0 {
		t.Fatal("analysis time not accounted")
	}
	if wall := p.Overhead().Wall; got > wall {
		t.Fatalf("report analysis time %v exceeds the clock's wall %v", got, wall)
	}
}

func TestSharedMemoryExcludedFromGraph(t *testing.T) {
	rt, p := newProfiled(t, Config{Coarse: true, Fine: true})
	x, _ := rt.MallocF32(64, "x")
	k := &gpu.GoKernel{
		Name: "sharedk",
		Func: func(t *gpu.Thread) {
			sh := t.SharedBase()
			t.StoreF32(0, sh+uint64(4*t.GlobalID()%256), 1)
			v := t.LoadF32(1, sh+uint64(4*t.GlobalID()%256))
			t.StoreF32(2, uint64(x)+uint64(4*t.GlobalID()), v)
		},
	}
	if err := rt.Launch(k, gpu.Dim1(1), gpu.Dim1(64)); err != nil {
		t.Fatal(err)
	}
	// Shared memory (object 0) appears in fine reports but not as graph
	// edges.
	rep := p.Report()
	var sharedFine bool
	for _, f := range rep.Fine {
		if f.ObjectID == 0 {
			sharedFine = true
		}
	}
	if !sharedFine {
		t.Fatal("shared memory missing from fine analysis")
	}
	for _, e := range p.Graph().Edges() {
		if e.Object == 0 {
			t.Fatalf("shared memory leaked into graph: %+v", e)
		}
	}
}
