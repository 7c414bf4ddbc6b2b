package sanitizer

import (
	"bytes"
	"testing"
	"time"

	"valueexpert/gpu"
)

// noMem is a device memory with no allocations: every record the tests
// feed lies outside all of them.
var noMem = gpu.NewMemory(0)

func feed(t *testing.T, e *Engine, kernel string, n int) (flushed [][]gpu.Access, instrumented bool) {
	t.Helper()
	hook, filter, finish := e.Instrument(kernel, noMem, false, func(b *Buffer) {
		cp := append([]gpu.Access(nil), b.Recs...)
		flushed = append(flushed, cp)
		e.Recycle(b)
	})
	if hook == nil {
		finish()
		return nil, false
	}
	for i := 0; i < n; i++ {
		blk := int32(i % 8)
		if filter == nil || filter(blk) {
			hook(gpu.Access{Addr: uint64(i), Block: blk})
		}
	}
	finish()
	return flushed, true
}

func TestBufferFlushProtocol(t *testing.T) {
	e := New(Config{BufferRecords: 10})
	flushed, ok := feed(t, e, "k", 25)
	if !ok {
		t.Fatal("kernel not instrumented")
	}
	// 25 records with capacity 10: flushes of 10, 10, then final 5.
	if len(flushed) != 3 || len(flushed[0]) != 10 || len(flushed[2]) != 5 {
		sizes := []int{}
		for _, f := range flushed {
			sizes = append(sizes, len(f))
		}
		t.Fatalf("flush sizes = %v, want [10 10 5]", sizes)
	}
	s := e.Stats()
	if s.Records != 25 || s.Flushes != 3 || s.LaunchesProfiled != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Records preserved in order across flushes.
	var all []gpu.Access
	for _, f := range flushed {
		all = append(all, f...)
	}
	for i, a := range all {
		if a.Addr != uint64(i) {
			t.Fatalf("record %d addr = %d", i, a.Addr)
		}
	}
}

func TestNoFinalFlushWhenEmpty(t *testing.T) {
	e := New(Config{BufferRecords: 5})
	flushed, _ := feed(t, e, "k", 10)
	if len(flushed) != 2 {
		t.Fatalf("flushes = %d, want exactly 2 (no empty final flush)", len(flushed))
	}
}

func TestKernelFilter(t *testing.T) {
	e := New(Config{KernelFilter: func(name string) bool { return name == "hot" }})
	if _, ok := feed(t, e, "cold", 5); ok {
		t.Fatal("filtered kernel was instrumented")
	}
	if _, ok := feed(t, e, "hot", 5); !ok {
		t.Fatal("selected kernel was not instrumented")
	}
	s := e.Stats()
	if s.LaunchesSeen != 2 || s.LaunchesProfiled != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestKernelSampling(t *testing.T) {
	e := New(Config{KernelSamplingPeriod: 3})
	profiled := 0
	for i := 0; i < 9; i++ {
		if _, ok := feed(t, e, "k", 1); ok {
			profiled++
		}
	}
	if profiled != 3 {
		t.Fatalf("profiled %d launches of 9 with period 3, want 3", profiled)
	}
	// Sampling counters are per kernel name.
	if _, ok := feed(t, e, "other", 1); !ok {
		t.Fatal("first launch of a new kernel must be sampled")
	}
}

func TestBlockSampling(t *testing.T) {
	e := New(Config{BlockSamplingPeriod: 4})
	flushed, ok := feed(t, e, "k", 64)
	if !ok {
		t.Fatal("not instrumented")
	}
	var n int
	for _, f := range flushed {
		for _, a := range f {
			n++
			if a.Block%4 != 0 {
				t.Fatalf("record from unsampled block %d", a.Block)
			}
		}
	}
	// Blocks cycle 0..7; blocks 0 and 4 are sampled => 1/4 of records.
	if n != 16 {
		t.Fatalf("sampled records = %d, want 16", n)
	}
}

func TestDefaultBufferSize(t *testing.T) {
	e := New(Config{})
	buf := e.take()
	if cap(buf.Recs) != DefaultBufferRecords {
		t.Fatalf("default buffer = %d, want %d", cap(buf.Recs), DefaultBufferRecords)
	}
	if e.made != 1 {
		t.Fatalf("%d buffers made, want 1", e.made)
	}
	e.Recycle(buf)
}

// TestBufferReuseAcrossLaunches checks that with a recycling consumer the
// pool never grows: the same buffers serve many launches.
func TestBufferReuseAcrossLaunches(t *testing.T) {
	e := New(Config{BufferRecords: 8})
	for launch := 0; launch < 5; launch++ {
		flushed, ok := feed(t, e, "k", 20)
		if !ok || len(flushed) != 3 {
			t.Fatalf("launch %d: flushes = %d, want 3", launch, len(flushed))
		}
	}
	// All buffers eventually return to the pool (one may be parked as cur).
	if got := len(e.free); got < 1 || got > 2 {
		t.Fatalf("free pool = %d buffers, want 1 or 2", got)
	}
}

// TestBuffersAllocatedOnDemand: a consumer that recycles each buffer at
// once never needs a second one; one that holds the last depth-1 buffers
// across flushes makes the engine allocate more, never more than depth;
// Release drops them all and the next launch allocates afresh.
func TestBuffersAllocatedOnDemand(t *testing.T) {
	e := New(Config{BufferRecords: 8})
	if _, ok := feed(t, e, "k", 40); !ok || e.Buffers() != 1 {
		t.Fatalf("recycling consumer: %d buffers, want 1", e.Buffers())
	}
	var held []*Buffer
	hook, _, finish := e.Instrument("k", noMem, false, func(b *Buffer) {
		held = append(held, b)
		if len(held) == depth {
			e.Recycle(held[0])
			held = held[1:]
		}
		if e.Buffers() > depth {
			t.Fatalf("holding consumer: %d buffers, want at most %d", e.Buffers(), depth)
		}
	})
	for i := 0; i < 80; i++ {
		hook(gpu.Access{Addr: uint64(i)})
	}
	finish()
	for _, b := range held {
		e.Recycle(b)
	}
	if e.Buffers() != depth {
		t.Fatalf("holding consumer: %d buffers, want %d", e.Buffers(), depth)
	}
	e.Release()
	if e.Buffers() != 0 || len(e.free) != 0 {
		t.Fatalf("after Release: %d buffers, %d idle", e.Buffers(), len(e.free))
	}
	if flushed, ok := feed(t, e, "k", 20); !ok || len(flushed) != 3 || e.Buffers() != 1 {
		t.Fatalf("after Release: %d flushes with %d buffers", len(flushed), e.Buffers())
	}
}

// TestCollectorBlocksAtDepth is the memory cap: against a consumer that
// holds every delivered buffer, the collector fills four, blocks on its
// fifth take, and resumes only when one buffer is recycled. The engine
// never holds more than four.
func TestCollectorBlocksAtDepth(t *testing.T) {
	// The cap is pinned here as 4, not as depth, so that raising depth
	// shows as a failure: it is 4 × BufferRecords × 40 B of memory.
	const buffers, records = 4, 8
	// Four full buffers and a final partial one, delivered by finish.
	const total = buffers*records + records/2
	delivered := make(chan *Buffer, 2*buffers)
	blocked := make(chan bool, 1)
	e := New(Config{BufferRecords: records, Probes: Probes{Wait: func(b bool) {
		if b {
			blocked <- true
		}
	}}})
	hook, _, finish := e.Instrument("k", noMem, false, func(b *Buffer) { delivered <- b })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			hook(gpu.Access{Addr: uint64(i)})
		}
		finish()
	}()

	select {
	case <-blocked:
	case <-done:
		t.Fatal("collector finished without waiting for a buffer")
	case <-time.After(10 * time.Second):
		t.Fatal("collector never blocked")
	}
	// The collector waits inside its fifth take: four buffers delivered,
	// none recycled, none more allocated.
	if n := len(delivered); n != buffers {
		t.Fatalf("%d buffers delivered before the wait, want %d", n, buffers)
	}
	if e.Buffers() != buffers {
		t.Fatalf("%d buffers while blocked, want %d", e.Buffers(), buffers)
	}
	e.Recycle(<-delivered)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("collector did not resume after a recycle")
	}
	if n := len(delivered); n != buffers {
		t.Fatalf("%d buffers held after the run, want %d", n, buffers)
	}
	if e.Buffers() != buffers {
		t.Fatalf("%d buffers after the run, want %d", e.Buffers(), buffers)
	}
	if s := e.Stats(); s.Flushes != buffers+1 || s.Records != total {
		t.Fatalf("stats = %+v", s)
	}
}

// captureRun instruments one launch over a 4 KiB allocation of known
// bytes and feeds it, per round, a load range, a fill over the same
// bytes, a scalar load, a record outside every allocation and a load
// range overrunning the allocation. It returns the allocation and the
// feed; every flushed buffer is copied into out.
func captureRun(t *testing.T, e *Engine, capture bool, out *[]*Buffer) (*gpu.Allocation, func(rounds int)) {
	t.Helper()
	mem := gpu.NewMemory(1 << 20)
	x, err := mem.Alloc(4096, "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		x.Data[i] = byte(i * 7)
	}
	hook, _, finish := e.Instrument("k", mem, capture, func(b *Buffer) {
		cp := &Buffer{}
		for i, a := range b.Recs {
			cp.Append(a, b.RangeVal(i))
		}
		*out = append(*out, cp)
		e.Recycle(b)
	})
	return x, func(rounds int) {
		for i := 0; i < rounds; i++ {
			addr := x.Addr + uint64(37*(i%64))
			rng := gpu.Access{Addr: addr, Size: 4, Kind: gpu.KindUint, Count: 2 + uint32(i%9)}
			hook(rng)
			// The fill overwrites the bytes the range read; the range's
			// capture must keep what it read.
			for j := 0; j < rng.Elems(); j++ {
				x.Data[addr-x.Addr+uint64(4*j)]++
			}
			hook(gpu.Access{Addr: addr, Size: 4, Kind: gpu.KindUint, Count: rng.Count, Store: true})
			hook(gpu.Access{Addr: addr, Size: 4, Kind: gpu.KindUint})
			hook(gpu.Access{Addr: x.End() + 4096, Size: 4, Kind: gpu.KindUint})
			hook(gpu.Access{Addr: x.End() - 8, Size: 4, Kind: gpu.KindUint, Count: 4})
		}
		finish()
	}
}

// TestHookCompletesRecords: the hook stamps every record with its
// allocation's ID (-1 outside all of them) and, with capture on, keeps
// the bytes each in-bounds load range held when it ran, even after a
// later record of the same buffer overwrote them. Stores, scalar loads
// and overrunning ranges take no capture, nor does any record with
// capture off.
func TestHookCompletesRecords(t *testing.T) {
	for _, capture := range []bool{true, false} {
		var got []*Buffer
		e := New(Config{BufferRecords: 16})
		x, run := captureRun(t, e, capture, &got)
		want := make([]byte, len(x.Data))
		copy(want, x.Data)
		run(40)
		n := 0
		for _, b := range got {
			for i, a := range b.Recs {
				wantObj := int32(x.ID)
				if !x.Contains(a.Addr) {
					wantObj = -1
				}
				if a.Obj != wantObj {
					t.Fatalf("record %d: Obj %d, want %d", n, a.Obj, wantObj)
				}
				val := b.RangeVal(i)
				if !capture || a.Count <= 1 || a.Store || a.Addr+a.Bytes() > x.End() {
					if val != nil {
						t.Fatalf("record %d (%+v) has a capture", n, a)
					}
				} else {
					off := a.Addr - x.Addr
					if !bytes.Equal(val, want[off:off+a.Bytes()]) {
						t.Fatalf("record %d: captured %v, want %v", n, val, want[off:off+a.Bytes()])
					}
				}
				if a.Store {
					// Track the fill the feed applied after the range.
					for j := uint64(0); j < a.Bytes(); j += 4 {
						want[a.Addr-x.Addr+j]++
					}
				}
				n++
			}
		}
		if n != 5*40 {
			t.Fatalf("capture %v: %d records delivered, want %d", capture, n, 5*40)
		}
	}
}

// TestWarmCaptureAllocatesNothing: once the flush buffers have grown to
// hold a launch's captures, the hook fills, delivers and recycles them
// without allocating.
func TestWarmCaptureAllocatesNothing(t *testing.T) {
	mem := gpu.NewMemory(1 << 20)
	x, err := mem.Alloc(4096, "x")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{BufferRecords: 64})
	hook, _, _ := e.Instrument("k", mem, true, e.Recycle)
	feed := func() {
		for i := 0; i < 1000; i++ {
			hook(gpu.Access{Addr: x.Addr + uint64(37*(i%64)), Size: 4, Kind: gpu.KindUint, Count: 2 + uint32(i%9)})
			hook(gpu.Access{Addr: x.Addr, Size: 4, Kind: gpu.KindUint})
		}
	}
	feed()
	if allocs := testing.AllocsPerRun(10, feed); allocs != 0 {
		t.Fatalf("a warm hook allocated %.1f times per 2,000 records, want 0", allocs)
	}
}

// TestBufferCapturesAcrossChunks: captures that fill several chunks,
// including ones larger than a chunk, read back intact, and so do those
// of a second, differently shaped fill that reuses the storage.
func TestBufferCapturesAcrossChunks(t *testing.T) {
	b := &Buffer{}
	for fill, sizes := range [][]int{
		{100, chunkBytes - 50, 100, 3 * chunkBytes, 7, chunkBytes},
		{2 * chunkBytes, 4 * chunkBytes, 9, chunkBytes - 1, 2},
	} {
		b.reset()
		want := map[int][]byte{}
		for i, n := range sizes {
			val := bytes.Repeat([]byte{byte(10*fill + i + 1)}, n)
			b.Append(gpu.Access{}, nil)
			b.Append(gpu.Access{Size: 1, Count: uint32(n)}, val)
			want[2*i+1] = val
		}
		for i := range b.Recs {
			if got := b.RangeVal(i); !bytes.Equal(got, want[i]) || (got == nil) != (want[i] == nil) {
				t.Fatalf("fill %d record %d: capture of %d bytes, want %d", fill, i, len(got), len(want[i]))
			}
		}
	}
}
