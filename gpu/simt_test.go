package gpu

import (
	"testing"
	"time"
	"unsafe"
)

// TestAccessRecordSize pins the access record at 40 bytes: the sanitizer
// keeps up to four flush buffers of them per profiler, so a field added
// or reordered out of size order shows here as memory, not as a silent
// 20 % growth of every buffer.
func TestAccessRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Access{}) = %d, want 40", got)
	}
}

func TestDimCountAndFlat(t *testing.T) {
	d := Dim3{X: 4, Y: 3, Z: 2}
	if d.Count() != 24 {
		t.Fatalf("Count = %d, want 24", d.Count())
	}
	seen := make(map[int]bool)
	for z := 0; z < 2; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 4; x++ {
				f := d.Flat(Dim3{x, y, z})
				if seen[f] {
					t.Fatalf("duplicate flat index %d", f)
				}
				seen[f] = true
				if got := unflatten(d, f); got != (Dim3{x, y, z}) {
					t.Fatalf("unflatten(%d) = %v, want %v", f, got, Dim3{x, y, z})
				}
			}
		}
	}
	if Dim1(7).Count() != 7 || Dim2(3, 5).Count() != 15 {
		t.Fatal("Dim1/Dim2 wrong")
	}
	if (Dim3{}).Count() != 1 {
		t.Fatal("zero Dim3 should count as 1 (CUDA semantics)")
	}
}

// vecAdd is a reference kernel: c[i] = a[i] + b[i].
func vecAdd(aAddr, bAddr, cAddr uint64, n int) *GoKernel {
	return &GoKernel{
		Name: "vecAdd",
		Func: func(t *Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			av := t.LoadF32(0, aAddr+uint64(4*i))
			bv := t.LoadF32(1, bAddr+uint64(4*i))
			t.CountFP32(1)
			t.StoreF32(2, cAddr+uint64(4*i), av+bv)
		},
	}
}

func TestGoKernelExecuteAndCounters(t *testing.T) {
	dev := New(RTX2080Ti)
	const n = 1000
	a, _ := dev.Mem.Alloc(4*n, "a")
	b, _ := dev.Mem.Alloc(4*n, "b")
	c, _ := dev.Mem.Alloc(4*n, "c")
	for i := 0; i < n; i++ {
		dev.Mem.StoreRaw(a.Addr+uint64(4*i), 4, RawFromFloat32(float32(i)))
		dev.Mem.StoreRaw(b.Addr+uint64(4*i), 4, RawFromFloat32(2))
	}
	k := vecAdd(a.Addr, b.Addr, c.Addr, n)
	var ctr LaunchCounters
	if err := k.Execute(dev, Dim1(8), Dim1(128), nil, nil, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.Loads != 2*n || ctr.Stores != n {
		t.Fatalf("loads/stores = %d/%d, want %d/%d", ctr.Loads, ctr.Stores, 2*n, n)
	}
	if ctr.BytesLoaded != 8*n || ctr.BytesStored != 4*n {
		t.Fatalf("bytes = %d/%d", ctr.BytesLoaded, ctr.BytesStored)
	}
	if ctr.FP32Ops != n {
		t.Fatalf("fp32 = %d, want %d", ctr.FP32Ops, n)
	}
	raw, _ := dev.Mem.LoadRaw(c.Addr+4*500, 4)
	if got := Float32FromRaw(raw); got != 502 {
		t.Fatalf("c[500] = %v, want 502", got)
	}
	// Access types were registered by execution.
	at := k.AccessTypes()
	if at[0] != (AccessType{Kind: KindFloat, Size: 4}) || at[2] != (AccessType{Kind: KindFloat, Size: 4}) {
		t.Fatalf("access types = %+v", at)
	}
}

func TestGoKernelHookAndBlockFilter(t *testing.T) {
	dev := New(A100)
	const n = 256
	a, _ := dev.Mem.Alloc(4*n, "a")
	k := &GoKernel{
		Name: "touch",
		Func: func(t *Thread) {
			t.StoreU32(0, a.Addr+uint64(4*t.GlobalID()), uint32(t.GlobalID()))
		},
	}
	var recs []Access
	hook := func(rec Access) { recs = append(recs, rec) }
	var ctr LaunchCounters
	// Instrument only even blocks.
	filter := func(b int32) bool { return b%2 == 0 }
	if err := k.Execute(dev, Dim1(4), Dim1(64), hook, filter, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.Stores != n {
		t.Fatalf("all blocks must execute: stores = %d, want %d", ctr.Stores, n)
	}
	if len(recs) != n/2 {
		t.Fatalf("instrumented records = %d, want %d", len(recs), n/2)
	}
	for _, r := range recs {
		if r.Block%2 != 0 {
			t.Fatalf("record from unsampled block %d", r.Block)
		}
		if !r.Store || r.Size != 4 || r.Kind != KindUint {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestGoKernelFaultBecomesError(t *testing.T) {
	dev := New(RTX2080Ti)
	k := &GoKernel{
		Name: "oob",
		Func: func(t *Thread) { t.StoreU32(0, GlobalBase-64, 1) },
	}
	var ctr LaunchCounters
	if err := k.Execute(dev, Dim1(1), Dim1(1), nil, nil, &ctr); err == nil {
		t.Fatal("out-of-bounds store did not error")
	}
}

func TestCostModelShape(t *testing.T) {
	ti := New(RTX2080Ti)
	a100 := New(A100)
	// A memory-bound launch: A100's higher bandwidth must make it faster.
	memBound := LaunchCounters{BytesLoaded: 1 << 30}
	if a100.KernelCost(memBound) >= ti.KernelCost(memBound) {
		t.Fatal("A100 should beat 2080 Ti on memory-bound kernels")
	}
	// An FP64-bound launch: A100's FP64 advantage must dominate.
	fp64Bound := LaunchCounters{FP64Ops: 1 << 33}
	ratio := float64(ti.KernelCost(fp64Bound)) / float64(a100.KernelCost(fp64Bound))
	if ratio < 5 {
		t.Fatalf("FP64 ratio 2080Ti/A100 = %.1f, want >5 (paper §8.5 rationale)", ratio)
	}
	// Launch latency floors tiny kernels.
	if ti.KernelCost(LaunchCounters{}) < RTX2080Ti.LaunchLatency {
		t.Fatal("kernel cost below launch latency")
	}
}

func TestDeviceRecordAccumulation(t *testing.T) {
	dev := New(RTX2080Ti)
	dev.RecordAlloc(1024)
	dev.RecordCopy(1<<20, CopyHostToDevice)
	dev.RecordMemset(1 << 20)
	dev.RecordLaunch(LaunchCounters{Loads: 10, BytesLoaded: 40, FP32Ops: 10})
	s := dev.Stats()
	if s.AllocCalls != 1 || s.MemcpyCalls != 1 || s.MemsetCalls != 1 || s.KernelLaunches != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MemoryTime() != s.MemcpyTime+s.MemsetTime {
		t.Fatal("MemoryTime mismatch")
	}
	if s.KernelTime <= 0 || s.MemcpyTime <= 0 {
		t.Fatal("times not recorded")
	}
	dev.ResetStats()
	if dev.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestCopyCostDirections(t *testing.T) {
	h2d := A100.CopyCost(1<<24, CopyHostToDevice)
	d2d := A100.CopyCost(1<<24, CopyDeviceToDevice)
	if d2d >= h2d {
		t.Fatalf("D2D (%v) should be faster than H2D (%v) on-device", d2d, h2d)
	}
	if A100.CopyCost(0, CopyHostToDevice) < A100.CopyLatency {
		t.Fatal("copy latency not applied")
	}
	if CopyHostToDevice.String() != "HostToDevice" || CopyKind(9).String() == "" {
		t.Fatal("CopyKind.String broken")
	}
}

func TestMemsetCostMonotonic(t *testing.T) {
	dev := New(RTX2080Ti)
	if dev.MemsetCost(1<<26) <= dev.MemsetCost(1<<10) {
		t.Fatal("memset cost not monotonic in size")
	}
	_ = time.Microsecond
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("A100")
	if err != nil || p.Name != "A100" {
		t.Fatalf("ProfileByName(A100) = %v, %v", p, err)
	}
	if _, err := ProfileByName("H100"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestValueKindString(t *testing.T) {
	if KindFloat.String() != "float" || KindInt.String() != "int" ||
		KindUint.String() != "uint" || KindUnknown.String() != "unknown" {
		t.Fatal("ValueKind.String broken")
	}
}

func TestAccessWarp(t *testing.T) {
	a := Access{Thread: 65}
	if a.Warp() != 2 {
		t.Fatalf("warp = %d, want 2", a.Warp())
	}
}
