package sanitizer

import (
	"testing"
	"time"

	"valueexpert/gpu"
)

func feed(t *testing.T, e *Engine, kernel string, n int) (flushed [][]gpu.Access, instrumented bool) {
	t.Helper()
	hook, filter, finish := e.Instrument(kernel, func(recs []gpu.Access) {
		cp := append([]gpu.Access(nil), recs...)
		flushed = append(flushed, cp)
		e.Recycle(recs)
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
	if cap(buf) != DefaultBufferRecords {
		t.Fatalf("default buffer = %d, want %d", cap(buf), DefaultBufferRecords)
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
	var held [][]gpu.Access
	hook, _, finish := e.Instrument("k", func(recs []gpu.Access) {
		held = append(held, recs)
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
	delivered := make(chan []gpu.Access, 2*buffers)
	blocked := make(chan bool, 1)
	e := New(Config{BufferRecords: records, Probes: Probes{Wait: func(b bool) {
		if b {
			blocked <- true
		}
	}}})
	hook, _, finish := e.Instrument("k", func(recs []gpu.Access) { delivered <- recs })
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
