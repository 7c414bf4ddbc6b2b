// Seeded random workload generation for the property-based differential
// harness: RandomProgram draws an alloc/copy/kernel/free schedule from a
// seed and executes it on a runtime. The schedule is a pure function of
// the seed — it is drawn completely before execution — so the same seed
// issues the same API sequence whether or not faults fire; faults only
// change which calls fail and which dependent calls are skipped.
package workloads

import (
	"math/rand"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
)

// randOp is one drawn operation of a RandomProgram schedule.
type randOp struct {
	kind   int // opAlloc..opFree
	buf    int // primary buffer index (into the draw-order alloc list)
	src    int // secondary buffer index for d2d / two-input kernels
	elems  int // allocation size, in float32 elements
	class  int // value class for h2d fills
	scalar float32
	kernel int // kernel selector for launches
}

const (
	opAlloc = iota
	opH2D
	opMemset
	opD2D
	opD2H
	opLaunch
	opFree
	numRandOps
)

// Value classes for host fills — the pattern families coarse analysis
// classifies (zeros, a constant, two-valued, iota, random).
const (
	classZeros = iota
	classConstant
	classTwoValued
	classIota
	classRandom
	numClasses
)

// DefaultRandomOps is the schedule length a zero Ops selects.
const DefaultRandomOps = 48

// RandomProgram is a seeded random GPU program for differential testing.
type RandomProgram struct {
	// Seed selects the schedule; equal seeds replay equal schedules.
	Seed int64
	// Ops is the schedule length (0 = DefaultRandomOps).
	Ops int
	// Tolerant makes Run swallow API errors (recording them in the
	// returned slice) and skip operations depending on a failed
	// allocation — how a fault-tolerant application degrades. When false,
	// Run stops at the first error.
	Tolerant bool
	// ScalarLoads lowers every BulkLoad to scalar loads of the same
	// elements at the same PC: the same program without range records.
	ScalarLoads bool
}

// schedule draws the full operation list. Buffer indices refer to the
// allocation draw order; execution maps them to live allocations.
func (p *RandomProgram) schedule() []randOp {
	n := p.Ops
	if n <= 0 {
		n = DefaultRandomOps
	}
	r := rand.New(rand.NewSource(p.Seed))
	ops := make([]randOp, 0, n+3)
	allocs := 0
	draw := func(kind int) randOp {
		op := randOp{
			kind:   kind,
			elems:  64 + r.Intn(449), // 64..512 float32 elements
			class:  r.Intn(numClasses),
			scalar: float32(r.Intn(8)),
			kernel: r.Intn(numRandKernels),
		}
		if allocs > 0 {
			op.buf = r.Intn(allocs)
			op.src = r.Intn(allocs)
		}
		if kind == opAlloc {
			allocs++
		}
		return op
	}
	// Every schedule starts alloc → fill → launch so each fault point has
	// work to hit even at occurrence 1.
	ops = append(ops, draw(opAlloc), draw(opH2D), draw(opLaunch))
	for len(ops) < n {
		kind := r.Intn(numRandOps)
		if kind == opFree && allocs < 2 {
			kind = opAlloc // keep at least one buffer live
		}
		ops = append(ops, draw(kind))
	}
	return ops
}

// hostValues materializes a value-class fill.
func hostValues(r *rand.Rand, class, n int, scalar float32) []float32 {
	out := make([]float32, n)
	switch class {
	case classZeros:
	case classConstant:
		for i := range out {
			out[i] = scalar
		}
	case classTwoValued:
		for i := range out {
			out[i] = scalar * float32(i%2)
		}
	case classIota:
		for i := range out {
			out[i] = float32(i % 97)
		}
	default:
		for i := range out {
			out[i] = float32(r.Intn(1024)) / 32
		}
	}
	return out
}

// Kernel selectors.
const (
	kernFill = iota
	kernScale
	kernAxpy
	kernCopy
	kernBulkRead   // BulkLoad tiles of src, one store per tile
	kernBulkFill   // BulkFill tiles of dst
	kernBulkUpdate // BulkLoad a tile of dst, then store over it
	numRandKernels
)

// bulkTile is the elements one thread of a bulk kernel covers.
const bulkTile = 16

// bulkLoad loads elems float32 values at addr, at PC 0, as one range
// record or, when lowered, as elems scalar loads.
func bulkLoad(t *gpu.Thread, addr uint64, elems int, lowered bool) {
	if !lowered {
		t.BulkLoad(0, addr, elems, 4, gpu.KindFloat)
		return
	}
	for j := 0; j < elems; j++ {
		t.LoadF32(0, addr+uint64(4*j))
	}
}

func randKernel(sel int, dst, src cuda.DevPtr, n int, scalar float32, lowered bool) *gpu.GoKernel {
	switch sel {
	case kernBulkRead, kernBulkFill, kernBulkUpdate:
		name := []string{"rnd_bulk_read", "rnd_bulk_fill", "rnd_bulk_update"}[sel-kernBulkRead]
		return &gpu.GoKernel{Name: name, Func: func(t *gpu.Thread) {
			lo := t.GlobalID() * bulkTile
			if lo >= n {
				return
			}
			elems, at := min(bulkTile, n-lo), uint64(4*lo)
			switch sel {
			case kernBulkRead:
				bulkLoad(t, uint64(src)+at, elems, lowered)
				t.StoreF32(1, uint64(dst)+at, scalar)
			case kernBulkFill:
				t.BulkFill(0, uint64(dst)+at, elems, 4, gpu.KindFloat, gpu.RawFromFloat32(scalar))
			default:
				bulkLoad(t, uint64(dst)+at, elems, lowered)
				for j := 0; j < elems; j++ {
					t.StoreF32(1, uint64(dst)+at+uint64(4*j), scalar+float32(j%2))
				}
			}
		}}
	case kernFill:
		return &gpu.GoKernel{Name: "rnd_fill", Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			t.StoreF32(0, uint64(dst)+uint64(4*i), scalar)
		}}
	case kernScale:
		return &gpu.GoKernel{Name: "rnd_scale", Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			v := t.LoadF32(0, uint64(dst)+uint64(4*i))
			t.CountFP32(1)
			t.StoreF32(1, uint64(dst)+uint64(4*i), scalar*v)
		}}
	case kernAxpy:
		return &gpu.GoKernel{Name: "rnd_axpy", Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			x := t.LoadF32(0, uint64(src)+uint64(4*i))
			y := t.LoadF32(1, uint64(dst)+uint64(4*i))
			t.CountFP32(2)
			t.StoreF32(2, uint64(dst)+uint64(4*i), scalar*x+y)
		}}
	default:
		return &gpu.GoKernel{Name: "rnd_copy", Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			v := t.LoadF32(0, uint64(src)+uint64(4*i))
			t.StoreF32(1, uint64(dst)+uint64(4*i), v)
		}}
	}
}

// liveBuf is one allocation during execution.
type liveBuf struct {
	ptr   cuda.DevPtr
	elems int
	live  bool
}

// Run executes the schedule on rt. In tolerant mode it returns every API
// error encountered (empty = clean run); otherwise it returns the first
// error alone. The value-fill generator is seeded independently of the
// schedule so fills don't shift when operations are skipped.
func (p *RandomProgram) Run(rt *cuda.Runtime) []error {
	// A synthetic frame keeps captured call paths independent of the
	// goroutine and call site running the program, so reports stay
	// byte-comparable across harness entry points (one-shot runs, daemon
	// sessions, replay).
	rt.PushFrame(callpath.Frame{Func: "RandomProgram.Run", File: "workloads/random.go", Line: 1})
	defer rt.PopFrame()
	vals := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	var (
		bufs []liveBuf
		errs []error
	)
	fail := func(err error) bool {
		if err == nil {
			return false
		}
		errs = append(errs, err)
		return true
	}
	// pick maps a drawn buffer index to a live allocation, scanning
	// forward from the index so frees and failed allocs redirect instead
	// of aborting the operation.
	pick := func(idx int) *liveBuf {
		if len(bufs) == 0 {
			return nil
		}
		for off := 0; off < len(bufs); off++ {
			b := &bufs[(idx+off)%len(bufs)]
			if b.live {
				return b
			}
		}
		return nil
	}
	for _, op := range p.schedule() {
		if len(errs) > 0 && !p.Tolerant {
			break
		}
		switch op.kind {
		case opAlloc:
			ptr, err := rt.MallocF32(op.elems, "rnd")
			// A failed alloc still occupies its draw slot, dead, so later
			// buffer indices keep their meaning.
			bufs = append(bufs, liveBuf{ptr: ptr, elems: op.elems, live: err == nil})
			fail(err)
		case opH2D:
			if b := pick(op.buf); b != nil {
				fail(rt.CopyF32ToDevice(b.ptr, hostValues(vals, op.class, b.elems, op.scalar)))
			}
		case opMemset:
			if b := pick(op.buf); b != nil {
				fail(rt.Memset(b.ptr, byte(op.class), uint64(4*b.elems)))
			}
		case opD2D:
			dst, src := pick(op.buf), pick(op.src)
			if dst != nil && src != nil && dst != src {
				n := min(dst.elems, src.elems)
				fail(rt.MemcpyD2D(dst.ptr, src.ptr, uint64(4*n)))
			}
		case opD2H:
			if b := pick(op.buf); b != nil {
				fail(rt.CopyF32FromDevice(make([]float32, b.elems), b.ptr))
			}
		case opLaunch:
			dst, src := pick(op.buf), pick(op.src)
			if dst == nil {
				break
			}
			if src == nil {
				src = dst
			}
			n := dst.elems
			if src.elems < n {
				n = src.elems
			}
			k := randKernel(op.kernel, dst.ptr, src.ptr, n, op.scalar, p.ScalarLoads)
			fail(rt.Launch(k, gpu.Dim1((n+63)/64), gpu.Dim1(64)))
		case opFree:
			if b := pick(op.buf); b != nil {
				if !fail(rt.Free(b.ptr)) {
					b.live = false
				}
			}
		}
	}
	return errs
}
