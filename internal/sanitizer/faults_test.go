package sanitizer

import (
	"testing"
	"time"

	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/telemetry"
)

func faultFeed(t *testing.T, cfg Config, n int) ([][]gpu.Access, Stats) {
	t.Helper()
	e := New(cfg)
	flushed, ok := feed(t, e, "k", n)
	if !ok {
		t.Fatal("kernel not instrumented")
	}
	return flushed, e.Stats()
}

func TestFlushDrop(t *testing.T) {
	// 25 records, capacity 10: deliveries of 10, 10, 5; drop the second.
	flushed, s := faultFeed(t, Config{
		BufferRecords: 10,
		Faults:        faultinject.New().FailNth(faultinject.FlushDrop, 2),
	}, 25)
	if len(flushed) != 2 || len(flushed[0]) != 10 || len(flushed[1]) != 5 {
		t.Fatalf("flushes = %v", lens(flushed))
	}
	if s.DroppedFlushes != 1 || s.DroppedRecords != 10 {
		t.Fatalf("stats = %+v", s)
	}
	// The dropped buffer's records are missing, the rest in order.
	if flushed[1][0].Addr != 20 {
		t.Fatalf("post-drop delivery starts at %d, want 20", flushed[1][0].Addr)
	}
	if s.Records != 25 {
		t.Fatalf("captured records = %d (capture count must not change)", s.Records)
	}
}

func TestFlushTruncate(t *testing.T) {
	flushed, s := faultFeed(t, Config{
		BufferRecords: 10,
		Faults:        faultinject.New().FailNth(faultinject.FlushTruncate, 1),
	}, 25)
	if len(flushed) != 3 || len(flushed[0]) != 5 || len(flushed[1]) != 10 {
		t.Fatalf("flushes = %v, want [5 10 5]", lens(flushed))
	}
	if s.DroppedFlushes != 0 || s.DroppedRecords != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFlushDelayPreservesOrderAndRecords(t *testing.T) {
	// The spare buffer allows the delay to hold one; nothing may be lost
	// and delivery order must be preserved.
	flushed, s := faultFeed(t, Config{
		BufferRecords: 10,
		Faults:        faultinject.New().FailNth(faultinject.FlushDelay, 1),
	}, 25)
	if len(flushed) != 3 {
		t.Fatalf("flushes = %v, want 3", lens(flushed))
	}
	var all []gpu.Access
	for _, f := range flushed {
		all = append(all, f...)
	}
	if len(all) != 25 {
		t.Fatalf("delivered %d records, want all 25 (delay is lossless)", len(all))
	}
	for i, a := range all {
		if a.Addr != uint64(i) {
			t.Fatalf("record %d addr = %d (order broken)", i, a.Addr)
		}
	}
	if s.DroppedRecords != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFlushDelayNeverHoldsLastBuffer: the consumer keeps its latest
// depth-1 buffers and recycles the oldest only when the next arrives, so
// when the depth-th delivery's delay fires every buffer is out. Holding
// that delivery would leave the collector waiting for a buffer the
// consumer never returns; the fault must degrade to an immediate
// delivery instead.
func TestFlushDelayNeverHoldsLastBuffer(t *testing.T) {
	e := New(Config{
		BufferRecords: 10,
		Faults:        faultinject.New().FailNth(faultinject.FlushDelay, depth),
	})
	var kept []*Buffer
	var total int
	hook, _, finish := e.Instrument("k", noMem, false, func(b *Buffer) {
		total += len(b.Recs)
		if len(kept) == depth-1 {
			e.Recycle(kept[0])
			kept = kept[1:]
		}
		kept = append(kept, b)
	})
	const n = 10*depth + 15
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			hook(gpu.Access{Addr: uint64(i)})
		}
		finish()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("collector deadlocked waiting for a buffer")
	}
	if total != n {
		t.Fatalf("delivered %d records, want %d", total, n)
	}
}

func TestAbortRecyclesHeldBuffer(t *testing.T) {
	e := New(Config{
		BufferRecords: 4,
		Faults:        faultinject.New().FailNth(faultinject.FlushDelay, 1),
	})
	hook, _, _ := e.Instrument("k", noMem, false, e.Recycle)
	for i := 0; i < 5; i++ { // one full buffer delivered (held), partial cur
		hook(gpu.Access{Addr: uint64(i)})
	}
	if e.held == nil {
		t.Fatal("delay fault did not hold the delivery")
	}
	e.Abort() // a failed launch never calls finish
	if e.held != nil {
		t.Fatal("Abort left a held buffer")
	}
	// Both buffers are available again: the next launch can fill and
	// deliver twice without blocking.
	flushed, ok := feed(t, e, "k", 8)
	if !ok || len(flushed) != 2 {
		t.Fatalf("post-abort flushes = %v", lens(flushed))
	}
}

func TestProbesCountDrops(t *testing.T) {
	p := Probes{
		DroppedFlushes: &telemetry.Counter{},
		DroppedRecords: &telemetry.Counter{},
	}
	e := New(Config{
		BufferRecords: 10,
		Probes:        p,
		Faults:        faultinject.New().FailNth(faultinject.FlushDrop, 1),
	})
	feed(t, e, "k", 12)
	if got := p.DroppedFlushes.Value(); got != 1 {
		t.Fatalf("dropped flushes counter = %d", got)
	}
	if got := p.DroppedRecords.Value(); got != 10 {
		t.Fatalf("dropped records counter = %d", got)
	}
}

func lens(bufs [][]gpu.Access) []int {
	out := make([]int, len(bufs))
	for i, b := range bufs {
		out[i] = len(b)
	}
	return out
}
