package gpu

import "fmt"

// Dim3 is a CUDA-style three-dimensional extent or coordinate.
type Dim3 struct{ X, Y, Z int }

// Dim1 returns a 1-D extent of n.
func Dim1(n int) Dim3 { return Dim3{X: n, Y: 1, Z: 1} }

// Dim2 returns a 2-D extent.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the number of points in the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x < 1 {
		x = 1
	}
	if y < 1 {
		y = 1
	}
	if z < 1 {
		z = 1
	}
	return x * y * z
}

// Flat returns the linearized index of coordinate c within extent d.
func (d Dim3) Flat(c Dim3) int {
	return (c.Z*max(d.Y, 1)+c.Y)*max(d.X, 1) + c.X
}

// WarpSize is the number of threads per warp, as on all NVIDIA parts the
// paper targets.
const WarpSize = 32

// PC identifies a memory instruction within a kernel. For closure kernels
// it is a caller-assigned site ID; for sass kernels it is the instruction
// offset. Virtual PCs seen in access records are ModuleBase+8*PC, mirroring
// how the online analyzer maps virtual PCs back to binary offsets (§5.1).
type PC = uint32

// ValueKind classifies how a memory instruction's raw bits are interpreted.
type ValueKind uint8

// Value kinds recovered by access-type analysis.
const (
	KindUnknown ValueKind = iota
	KindUint
	KindInt
	KindFloat
)

// String returns a short mnemonic.
func (k ValueKind) String() string {
	switch k {
	case KindUint:
		return "uint"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	}
	return "unknown"
}

// AccessType is the (kind, unit size) signature of a memory instruction,
// the output of the offline analyzer's access-type inference.
type AccessType struct {
	Kind ValueKind
	Size uint8 // bytes per value: 1, 2, 4, or 8
}

// Access is one dynamic memory operation observed during kernel execution:
// the record the Sanitizer-API instrumentation captures (PC, effective
// address, size, raw value) plus SIMT coordinates.
//
// A Count > 1 marks a *range record*: Count consecutive elements of Size
// bytes starting at Addr, produced by the warp-level compaction of
// coalesced accesses (paper §6.1). For compacted fills Raw holds the
// common stored value; for compacted loads the instrumentation captures
// the element values at access time, beside the record.
//
// Fields are ordered by size so the record packs into 40 bytes: the
// sanitizer's flush buffers hold tens of thousands of records each.
type Access struct {
	Addr   uint64
	Raw    uint64
	PC     PC
	Count  uint32 // 0 or 1 = scalar access; >1 = compacted range
	Block  int32  // flat block index
	Thread int32  // flat thread index within the block
	// Obj is the ID of the allocation containing Addr (-1: none), which
	// the instrumentation stamps at access time; kernels leave it zero.
	Obj   int32
	Size  uint8
	Kind  ValueKind
	Store bool
}

// Elems returns the number of elements the record covers (at least 1).
func (a Access) Elems() int {
	if a.Count > 1 {
		return int(a.Count)
	}
	return 1
}

// Bytes returns the total bytes the record covers.
func (a Access) Bytes() uint64 { return uint64(a.Elems()) * uint64(a.Size) }

// Warp returns the access's warp index within its block.
func (a Access) Warp() int32 { return a.Thread / WarpSize }

// AccessFunc receives every instrumented memory access. A nil hook means
// the kernel runs uninstrumented (native execution).
type AccessFunc func(Access)

// LaunchCounters tallies one kernel launch's activity for the cost model.
type LaunchCounters struct {
	Loads       uint64
	Stores      uint64
	BytesLoaded uint64 // global-memory bytes read
	BytesStored uint64 // global-memory bytes written
	SharedBytes uint64 // on-chip shared-memory bytes (cheap, tracked apart)
	FP32Ops     uint64
	FP64Ops     uint64
	IntOps      uint64
}

// Kernel is anything the runtime can launch on a device.
type Kernel interface {
	// KernelName is the symbol name used for filtering and reports.
	KernelName() string
	// Execute runs the full grid on dev, reporting accesses to hook (which
	// may be nil) and accumulating execution counters into ctr.
	// blockFilter, when non-nil, selects which flat block indices are
	// instrumented (block sampling); unselected blocks still execute and
	// count, but do not report accesses.
	Execute(dev *Device, grid, block Dim3, hook AccessFunc, blockFilter func(int32) bool, ctr *LaunchCounters) error
	// AccessTypes returns the kernel's per-PC access types, as recovered by
	// the offline analyzer (sass kernels) or declared by construction
	// (closure kernels).
	AccessTypes() map[PC]AccessType
	// LineMapping returns per-PC source locations, if debug info exists.
	LineMapping() map[PC]SrcLine
}

// SrcLine is a source coordinate from a binary's line-mapping section.
type SrcLine struct {
	File string
	Line int
}

// String formats the location as file:line.
func (s SrcLine) String() string {
	if s.File == "" {
		return "?"
	}
	return fmt.Sprintf("%s:%d", s.File, s.Line)
}

// Thread is the execution context handed to closure-kernel thread
// functions. Its typed load/store methods are the instrumentation points:
// each call performs the device-memory access, feeds the cost model, and
// reports an Access record when the launch is instrumented.
type Thread struct {
	BlockIdx  Dim3
	ThreadIdx Dim3
	GridDim   Dim3
	BlockDim  Dim3

	flatBlock  int32
	flatThread int32
	instrument bool

	mem  *Memory
	hook AccessFunc
	ctr  *LaunchCounters
	k    *GoKernel
}

// GlobalID returns the flat global thread index
// (blockIdx.x*blockDim.x+threadIdx.x generalized to 3-D).
func (t *Thread) GlobalID() int {
	return int(t.flatBlock)*t.BlockDim.Count() + int(t.flatThread)
}

// SharedBase returns the base address of the shared-memory window.
func (t *Thread) SharedBase() uint64 { return SharedBase }

func (t *Thread) access(pc PC, addr uint64, size uint8, kind ValueKind, store bool, raw uint64) {
	t.k.noteType(pc, AccessType{Kind: kind, Size: size})
	shared := addr >= SharedBase && addr < SharedBase+SharedSize
	switch {
	case shared && store:
		t.ctr.Stores++
		t.ctr.SharedBytes += uint64(size)
	case shared:
		t.ctr.Loads++
		t.ctr.SharedBytes += uint64(size)
	case store:
		t.ctr.Stores++
		t.ctr.BytesStored += uint64(size)
	default:
		t.ctr.Loads++
		t.ctr.BytesLoaded += uint64(size)
	}
	if t.instrument && t.hook != nil {
		t.hook(Access{
			PC: pc, Addr: addr, Size: size, Kind: kind, Store: store, Raw: raw,
			Block: t.flatBlock, Thread: t.flatThread,
		})
	}
}

func (t *Thread) load(pc PC, addr uint64, size uint8, kind ValueKind) uint64 {
	raw, err := t.mem.LoadRaw(addr, size)
	if err != nil {
		panic(kernelFault{err})
	}
	t.access(pc, addr, size, kind, false, raw)
	return raw
}

func (t *Thread) store(pc PC, addr uint64, size uint8, kind ValueKind, raw uint64) {
	if err := t.mem.StoreRaw(addr, size, raw); err != nil {
		panic(kernelFault{err})
	}
	t.access(pc, addr, size, kind, true, raw)
}

// Typed global-memory accessors. The value kind declared here is what the
// offline analyzer would recover for the corresponding sass instruction.

// LoadF32 loads a float32 at addr; pc identifies the load site.
func (t *Thread) LoadF32(pc PC, addr uint64) float32 {
	return Float32FromRaw(t.load(pc, addr, 4, KindFloat))
}

// LoadF64 loads a float64 at addr.
func (t *Thread) LoadF64(pc PC, addr uint64) float64 {
	return Float64FromRaw(t.load(pc, addr, 8, KindFloat))
}

// LoadU8 loads a uint8 at addr.
func (t *Thread) LoadU8(pc PC, addr uint64) uint8 { return uint8(t.load(pc, addr, 1, KindUint)) }

// LoadU16 loads a uint16 at addr.
func (t *Thread) LoadU16(pc PC, addr uint64) uint16 { return uint16(t.load(pc, addr, 2, KindUint)) }

// LoadU32 loads a uint32 at addr.
func (t *Thread) LoadU32(pc PC, addr uint64) uint32 { return uint32(t.load(pc, addr, 4, KindUint)) }

// LoadU64 loads a uint64 at addr.
func (t *Thread) LoadU64(pc PC, addr uint64) uint64 { return t.load(pc, addr, 8, KindUint) }

// LoadI32 loads an int32 at addr.
func (t *Thread) LoadI32(pc PC, addr uint64) int32 { return int32(t.load(pc, addr, 4, KindInt)) }

// LoadI64 loads an int64 at addr.
func (t *Thread) LoadI64(pc PC, addr uint64) int64 { return int64(t.load(pc, addr, 8, KindInt)) }

// StoreF32 stores v at addr.
func (t *Thread) StoreF32(pc PC, addr uint64, v float32) {
	t.store(pc, addr, 4, KindFloat, RawFromFloat32(v))
}

// StoreF64 stores v at addr.
func (t *Thread) StoreF64(pc PC, addr uint64, v float64) {
	t.store(pc, addr, 8, KindFloat, RawFromFloat64(v))
}

// StoreU8 stores v at addr.
func (t *Thread) StoreU8(pc PC, addr uint64, v uint8) { t.store(pc, addr, 1, KindUint, uint64(v)) }

// StoreU16 stores v at addr.
func (t *Thread) StoreU16(pc PC, addr uint64, v uint16) { t.store(pc, addr, 2, KindUint, uint64(v)) }

// StoreU32 stores v at addr.
func (t *Thread) StoreU32(pc PC, addr uint64, v uint32) { t.store(pc, addr, 4, KindUint, uint64(v)) }

// StoreU64 stores v at addr.
func (t *Thread) StoreU64(pc PC, addr uint64, v uint64) { t.store(pc, addr, 8, KindUint, v) }

// StoreI32 stores v at addr.
func (t *Thread) StoreI32(pc PC, addr uint64, v int32) {
	t.store(pc, addr, 4, KindInt, uint64(uint32(v)))
}

// StoreI64 stores v at addr.
func (t *Thread) StoreI64(pc PC, addr uint64, v int64) { t.store(pc, addr, 8, KindInt, uint64(v)) }

// BulkLoad accounts for elems consecutive loads of elemSize bytes
// starting at addr — the bulk-traffic accessor for kernels whose inner
// loops stream large operand tiles. Uninstrumented launches charge the
// cost model in O(1); instrumented launches observe every element with
// its true raw value, exactly as elems scalar loads would.
func (t *Thread) BulkLoad(pc PC, addr uint64, elems int, elemSize uint8, kind ValueKind) {
	if elems <= 0 {
		return
	}
	t.k.noteType(pc, AccessType{Kind: kind, Size: elemSize})
	t.ctr.Loads += uint64(elems)
	t.ctr.BytesLoaded += uint64(elems) * uint64(elemSize)
	// Validate the range's ends so out-of-bounds bulk reads still fault.
	if _, err := t.mem.LoadRaw(addr+uint64(elems-1)*uint64(elemSize), elemSize); err != nil {
		panic(kernelFault{err})
	}
	raw, err := t.mem.LoadRaw(addr, elemSize)
	if err != nil {
		panic(kernelFault{err})
	}
	if t.instrument && t.hook != nil {
		// One compacted range record: coalesced accesses are merged at
		// the source, the warp-compaction of §6.1.
		t.hook(Access{
			PC: pc, Addr: addr, Size: elemSize, Kind: kind, Store: false, Raw: raw,
			Count: uint32(elems), Block: t.flatBlock, Thread: t.flatThread,
		})
	}
}

// BulkFill stores the raw value raw into elems consecutive elements of
// elemSize bytes starting at addr. Memory contents are always written;
// instrumented launches additionally observe every element store.
func (t *Thread) BulkFill(pc PC, addr uint64, elems int, elemSize uint8, kind ValueKind, raw uint64) {
	if elems <= 0 {
		return
	}
	t.k.noteType(pc, AccessType{Kind: kind, Size: elemSize})
	t.ctr.Stores += uint64(elems)
	t.ctr.BytesStored += uint64(elems) * uint64(elemSize)
	for i := 0; i < elems; i++ {
		if err := t.mem.StoreRaw(addr+uint64(i)*uint64(elemSize), elemSize, raw); err != nil {
			panic(kernelFault{err})
		}
	}
	if t.instrument && t.hook != nil {
		t.hook(Access{
			PC: pc, Addr: addr, Size: elemSize, Kind: kind, Store: true, Raw: raw,
			Count: uint32(elems), Block: t.flatBlock, Thread: t.flatThread,
		})
	}
}

// CountFP32 accounts for n single-precision floating-point operations.
func (t *Thread) CountFP32(n int) { t.ctr.FP32Ops += uint64(n) }

// CountFP64 accounts for n double-precision floating-point operations.
func (t *Thread) CountFP64(n int) { t.ctr.FP64Ops += uint64(n) }

// CountInt accounts for n integer/logic operations.
func (t *Thread) CountInt(n int) { t.ctr.IntOps += uint64(n) }

// kernelFault wraps a device-memory error raised inside a kernel so the
// launch boundary can distinguish it from programming-bug panics.
type kernelFault struct{ err error }

// Abort aborts the executing kernel with err: it panics with a kernel
// fault that the launch boundary converts back into an error return.
// Call it only from code running inside Kernel.Execute (thread functions,
// access hooks); anywhere else the panic escapes. It is how the fault
// injector kills a kernel mid-execution, and how custom instrumentation
// can refuse to continue.
func Abort(err error) { panic(kernelFault{err}) }

// FaultFrom extracts the error carried by a recovered kernel-fault panic
// value. Kernel implementations without their own recovery (and the
// runtime's launch path, as a backstop) use it to translate Abort panics
// into error returns while re-panicking everything else.
func FaultFrom(r any) (error, bool) {
	if f, ok := r.(kernelFault); ok {
		return f.err, true
	}
	return nil, false
}

// GoKernel is a kernel written as a Go closure: the moral equivalent of a
// compiled CUDA kernel whose memory instructions have been instrumented.
// Access types are registered by the typed accessors as sites execute,
// standing in for the offline analyzer's def-use slicing on real binaries.
type GoKernel struct {
	Name string
	// Func runs one thread.
	Func func(t *Thread)
	// Lines optionally maps access sites to source locations for reports.
	Lines map[PC]SrcLine

	types map[PC]AccessType
}

// KernelName implements Kernel.
func (k *GoKernel) KernelName() string { return k.Name }

// AccessTypes implements Kernel.
func (k *GoKernel) AccessTypes() map[PC]AccessType { return k.types }

// LineMapping implements Kernel.
func (k *GoKernel) LineMapping() map[PC]SrcLine { return k.Lines }

func (k *GoKernel) noteType(pc PC, at AccessType) {
	if k.types == nil {
		k.types = make(map[PC]AccessType)
	}
	if _, ok := k.types[pc]; !ok {
		k.types[pc] = at
	}
}

// Execute implements Kernel: it runs every thread of the grid, block by
// block, warps in lockstep order within each block. Execution is
// serialized, matching the collector's stream serialization; determinism
// keeps value-pattern results reproducible.
func (k *GoKernel) Execute(dev *Device, grid, block Dim3, hook AccessFunc, blockFilter func(int32) bool, ctr *LaunchCounters) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(kernelFault); ok {
				err = fmt.Errorf("kernel %s: %w", k.Name, f.err)
				return
			}
			panic(r)
		}
	}()
	nb, nt := grid.Count(), block.Count()
	t := Thread{GridDim: grid, BlockDim: block, mem: dev.Mem, hook: hook, ctr: ctr, k: k}
	for b := 0; b < nb; b++ {
		t.flatBlock = int32(b)
		t.BlockIdx = unflatten(grid, b)
		t.instrument = hook != nil && (blockFilter == nil || blockFilter(int32(b)))
		for th := 0; th < nt; th++ {
			t.flatThread = int32(th)
			t.ThreadIdx = unflatten(block, th)
			k.Func(&t)
		}
	}
	return nil
}

func unflatten(d Dim3, flat int) Dim3 {
	x := max(d.X, 1)
	y := max(d.Y, 1)
	return Dim3{X: flat % x, Y: (flat / x) % y, Z: flat / (x * y)}
}
