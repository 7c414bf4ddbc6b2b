package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// GlobalBase is the virtual address where device global memory begins.
// Choosing a high, recognizable base makes stray host addresses fail fast.
const GlobalBase uint64 = 0x7f00_0000_0000

// SharedBase is the virtual address of the (single) shared-memory window.
// The paper treats all of shared memory as one data object because it has
// no allocation function (§5.1); we reserve a distinct region for it below
// the global heap so accesses are attributable.
const SharedBase uint64 = 0x7e00_0000_0000

// SharedSize is the size of the shared-memory window.
const SharedSize uint64 = 1 << 20

// Allocation is a live or freed region of device global memory.
type Allocation struct {
	ID   int    // stable allocation identifier, 1-based
	Addr uint64 // virtual base address
	Size uint64
	Tag  string // optional debug label supplied by the allocator's caller
	Data []byte // backing store
	Live bool
}

// End returns the first address past the allocation.
func (a *Allocation) End() uint64 { return a.Addr + a.Size }

// Contains reports whether addr falls inside the allocation.
func (a *Allocation) Contains(addr uint64) bool {
	return addr >= a.Addr && addr < a.End()
}

// Memory is a device global-memory space: a bump/first-fit allocator over a
// flat virtual range plus the shared-memory window.
type Memory struct {
	limit  uint64 // total allocatable bytes
	used   uint64
	next   uint64 // bump pointer
	nextID int

	// allocs holds live allocations sorted by Addr for binary-search lookup.
	allocs []*Allocation

	// freed retains metadata of freed allocations (data released) so
	// profilers can resolve stale IDs.
	freed map[int]*Allocation

	shared *Allocation
}

// NewMemory creates a memory space able to allocate up to limit bytes.
func NewMemory(limit uint64) *Memory {
	m := &Memory{
		limit: limit,
		next:  GlobalBase,
		freed: make(map[int]*Allocation),
	}
	m.shared = &Allocation{
		ID:   0,
		Addr: SharedBase,
		Size: SharedSize,
		Tag:  "__shared__",
		Data: make([]byte, SharedSize),
		Live: true,
	}
	return m
}

// Shared returns the device's shared-memory object.
func (m *Memory) Shared() *Allocation { return m.shared }

// Alloc reserves size bytes of zeroed device memory tagged with tag.
// CUDA's cudaMalloc does not zero memory; ValueExpert's snapshots treat
// fresh allocations as unknown. We zero the backing store (Go requires
// initialized memory) but the profiler layer distinguishes "never written"
// via its own snapshot bookkeeping.
func (m *Memory) Alloc(size uint64, tag string) (*Allocation, error) {
	if size == 0 {
		return nil, fmt.Errorf("gpu: zero-size allocation (tag %q)", tag)
	}
	if m.used+size > m.limit {
		return nil, fmt.Errorf("gpu: out of device memory: %d bytes requested, %d free (tag %q)",
			size, m.limit-m.used, tag)
	}
	const align = 256 // CUDA allocations are 256-byte aligned
	addr := (m.next + align - 1) &^ uint64(align-1)
	m.nextID++
	a := &Allocation{
		ID:   m.nextID,
		Addr: addr,
		Size: size,
		Tag:  tag,
		Data: make([]byte, size),
		Live: true,
	}
	m.next = addr + size
	m.used += size
	m.allocs = append(m.allocs, a) // next is monotonic, so append keeps order
	return a, nil
}

// AllocAt reserves size bytes of zeroed device memory at a caller-chosen
// address with a caller-chosen (1-based) allocation ID — the capsule
// replay primitive: an extracted launch re-creates exactly the
// allocations it touches, at their recorded addresses, keeping the IDs
// the full-trace profile assigned. The bump pointer and ID counter
// advance past the pinned allocation, so ordinary Alloc calls may follow.
func (m *Memory) AllocAt(id int, addr, size uint64, tag string) (*Allocation, error) {
	if size == 0 {
		return nil, fmt.Errorf("gpu: zero-size allocation (tag %q)", tag)
	}
	if id <= 0 {
		return nil, fmt.Errorf("gpu: pinned allocation id %d must be positive (tag %q)", id, tag)
	}
	if addr+size < addr {
		return nil, fmt.Errorf("gpu: pinned allocation [%#x,+%d) wraps the address space (tag %q)", addr, size, tag)
	}
	if addr < SharedBase+SharedSize && addr+size > SharedBase {
		return nil, fmt.Errorf("gpu: pinned allocation [%#x,+%d) overlaps the shared window (tag %q)", addr, size, tag)
	}
	if m.used+size > m.limit {
		return nil, fmt.Errorf("gpu: out of device memory: %d bytes requested, %d free (tag %q)",
			size, m.limit-m.used, tag)
	}
	if m.LookupID(id) != nil {
		return nil, fmt.Errorf("gpu: pinned allocation id %d already in use (tag %q)", id, tag)
	}
	i := sort.Search(len(m.allocs), func(i int) bool {
		return m.allocs[i].End() > addr
	})
	if i < len(m.allocs) && m.allocs[i].Addr < addr+size {
		return nil, fmt.Errorf("gpu: pinned allocation [%#x,+%d) overlaps %q [%#x,+%d)",
			addr, size, m.allocs[i].Tag, m.allocs[i].Addr, m.allocs[i].Size)
	}
	a := &Allocation{
		ID:   id,
		Addr: addr,
		Size: size,
		Tag:  tag,
		Data: make([]byte, size),
		Live: true,
	}
	m.allocs = append(m.allocs, nil)
	copy(m.allocs[i+1:], m.allocs[i:])
	m.allocs[i] = a
	m.used += size
	if id > m.nextID {
		m.nextID = id
	}
	if addr+size > m.next {
		m.next = addr + size
	}
	return a, nil
}

// Free releases the allocation at addr.
func (m *Memory) Free(addr uint64) error {
	i := m.findIndex(addr)
	if i < 0 || m.allocs[i].Addr != addr {
		return fmt.Errorf("gpu: free of unallocated address %#x", addr)
	}
	a := m.allocs[i]
	a.Live = false
	a.Data = nil
	m.used -= a.Size
	m.freed[a.ID] = a
	m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
	return nil
}

// findIndex returns the index of the live allocation containing addr, or -1.
func (m *Memory) findIndex(addr uint64) int {
	i := sort.Search(len(m.allocs), func(i int) bool {
		return m.allocs[i].End() > addr
	})
	if i < len(m.allocs) && m.allocs[i].Contains(addr) {
		return i
	}
	return -1
}

// Lookup returns the live allocation containing addr (including the shared
// window), or nil.
func (m *Memory) Lookup(addr uint64) *Allocation {
	if m.shared.Contains(addr) {
		return m.shared
	}
	if i := m.findIndex(addr); i >= 0 {
		return m.allocs[i]
	}
	return nil
}

// LookupID returns the allocation (live or freed) with the given ID, or nil.
func (m *Memory) LookupID(id int) *Allocation {
	if id == 0 {
		return m.shared
	}
	for _, a := range m.allocs {
		if a.ID == id {
			return a
		}
	}
	return m.freed[id]
}

// Live returns the live allocations in address order (excluding shared).
func (m *Memory) Live() []*Allocation {
	out := make([]*Allocation, len(m.allocs))
	copy(out, m.allocs)
	return out
}

// slice resolves [addr, addr+n) to a backing-store slice, failing on
// unmapped or straddling ranges (device accesses never straddle
// allocations in well-formed programs).
func (m *Memory) slice(addr, n uint64) ([]byte, error) {
	a := m.Lookup(addr)
	if a == nil {
		return nil, fmt.Errorf("gpu: access to unmapped device address %#x (+%d)", addr, n)
	}
	if addr+n > a.End() {
		return nil, fmt.Errorf("gpu: access [%#x,+%d) overruns allocation %q [%#x,+%d)",
			addr, n, a.Tag, a.Addr, a.Size)
	}
	off := addr - a.Addr
	return a.Data[off : off+n], nil
}

// Read copies device memory at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) error {
	src, err := m.slice(addr, uint64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// Write copies src into device memory at addr.
func (m *Memory) Write(addr uint64, src []byte) error {
	dst, err := m.slice(addr, uint64(len(src)))
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// Set fills [addr, addr+n) with byte b (the memset primitive).
func (m *Memory) Set(addr uint64, b byte, n uint64) error {
	dst, err := m.slice(addr, n)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = b
	}
	return nil
}

// Raw load/store helpers. All device values are little-endian, matching
// the NVIDIA targets the paper instruments.

// AccessSizeError reports a load or store of a width the device does not
// support. It flows back through the kernel-fault path like any other
// device-memory error (launches fail with a typed error instead of a
// process panic).
type AccessSizeError struct{ Size uint8 }

// Error implements error.
func (e *AccessSizeError) Error() string {
	return fmt.Sprintf("gpu: unsupported access size %d (want 1, 2, 4, or 8)", e.Size)
}

// LoadRaw reads a size-byte value (size in {1,2,4,8}) at addr.
func (m *Memory) LoadRaw(addr uint64, size uint8) (uint64, error) {
	buf, err := m.slice(addr, uint64(size))
	if err != nil {
		return 0, err
	}
	return rawLoad(buf, size)
}

// StoreRaw writes a size-byte value (size in {1,2,4,8}) at addr.
func (m *Memory) StoreRaw(addr uint64, size uint8, v uint64) error {
	buf, err := m.slice(addr, uint64(size))
	if err != nil {
		return err
	}
	return rawStore(buf, size, v)
}

func rawLoad(buf []byte, size uint8) (uint64, error) {
	switch size {
	case 1:
		return uint64(buf[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf)), nil
	case 8:
		return binary.LittleEndian.Uint64(buf), nil
	}
	return 0, &AccessSizeError{Size: size}
}

func rawStore(buf []byte, size uint8, v uint64) error {
	switch size {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf, v)
	default:
		return &AccessSizeError{Size: size}
	}
	return nil
}

// Float32FromRaw reinterprets the low 32 bits of raw as a float32.
func Float32FromRaw(raw uint64) float32 { return math.Float32frombits(uint32(raw)) }

// Float64FromRaw reinterprets raw as a float64.
func Float64FromRaw(raw uint64) float64 { return math.Float64frombits(raw) }

// RawFromFloat32 returns the bit pattern of f zero-extended to 64 bits.
func RawFromFloat32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// RawFromFloat64 returns the bit pattern of f.
func RawFromFloat64(f float64) uint64 { return math.Float64bits(f) }
