// Package sanitizer reproduces the role NVIDIA's Compute Sanitizer API
// plays in ValueExpert: it instruments every memory load and store of
// selected GPU kernels, buffers the resulting access records in a bounded
// "device-side" buffer, and hands full buffers to the analyzer — the
// collect/flush protocol of paper §5.1 ("VALUEEXPERT then collects the
// information from all threads into a GPU buffer and copies the buffer to
// the CPU when it is full. This process repeats until the GPU kernel is
// finished.").
//
// It also implements the two fine-grained overhead controls of §6.2:
// kernel filtering (monitor only kernels the user names) and hierarchical
// sampling of kernels and thread blocks.
package sanitizer

import (
	"slices"

	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/telemetry"
)

// Config controls instrumentation scope and cost.
type Config struct {
	// BufferRecords is the capacity of each device-side record buffer. When
	// the current buffer fills mid-kernel it is handed to the analyzer and
	// swapped for an empty one. Zero selects DefaultBufferRecords.
	BufferRecords int

	// KernelFilter, when non-nil, selects which kernels are instrumented
	// by name. Nil instruments every kernel.
	KernelFilter func(name string) bool

	// KernelSamplingPeriod instruments one launch out of every N per
	// kernel name (hierarchical sampling level 1). Zero or one means
	// every launch.
	KernelSamplingPeriod int

	// BlockSamplingPeriod instruments one thread block out of every N
	// within an instrumented launch (hierarchical sampling level 2).
	// Zero or one means every block.
	BlockSamplingPeriod int

	// Probes are the engine's telemetry hooks (zero-value fields no-op).
	Probes Probes

	// Faults, when non-nil, injects buffer-delivery failures (drop,
	// truncate, delay) at the points the plan selects — the simulated
	// analogue of losing device→host instrumentation traffic.
	Faults *faultinject.Plan
}

// Probes are the sanitizer's observation hooks: instrumentation volume and
// the pipeline stall the collector pays when every flush buffer is in
// flight. Nil fields no-op, so the engine wires them unconditionally.
type Probes struct {
	// Flushes counts device→host buffer hand-offs.
	Flushes *telemetry.Counter
	// Records counts captured access records.
	Records *telemetry.Counter
	// Wait, when non-nil, is told when the collector blocks for a free
	// flush buffer (true) and when it has one (false): the backpressure
	// stall that bounds how far analysis can fall behind collection.
	Wait func(blocked bool)
	// DroppedFlushes counts buffer deliveries lost to injected faults.
	DroppedFlushes *telemetry.Counter
	// DroppedRecords counts access records lost to injected faults.
	DroppedRecords *telemetry.Counter
}

// DefaultBufferRecords matches a few-megabyte device buffer.
const DefaultBufferRecords = 64 << 10

// depth is the most flush buffers cycled between the collector and the
// analyzer: paper §6.1's double buffering, deepened to four so the
// collector can finish up to three launches (one Darknet layer) ahead of
// the analyzer while one buffer fills. Each buffer is allocated only when
// a flush finds every existing one in flight, so a running profiler holds
// at most 4 × BufferRecords × 40 B (10 MB at DefaultBufferRecords) of
// records, plus the load-range bytes captured beside them.
const depth = 4

// Buffer is one flush buffer: a stretch of a launch's access records and
// the bytes each captured load range held when it ran. It is delivered
// and recycled whole, so its capture storage keeps its size.
type Buffer struct {
	Recs []gpu.Access // in execution order

	// off[i] locates record i's capture, as its chunk's index ×
	// chunkBytes plus its start in that chunk, or is -1 when record i has
	// none; off ends at the last captured record. Chunks are filled in
	// turn and never regrown, so a capture is copied once; chunks past
	// used wait for a later fill.
	off    []int32
	chunks [][]byte
	used   int
}

// chunkBytes is the least capture storage a buffer allocates at a time,
// and the bound on where in a chunk a capture may start.
const chunkBytes = 64 << 10

// Append adds record a to the buffer. val, when non-nil, is the bytes a
// load range read (a.Bytes() long); Append copies it.
func (b *Buffer) Append(a gpu.Access, val []byte) {
	if val != nil {
		b.capture(val)
	}
	b.Recs = append(b.Recs, a)
}

// capture copies val into the chunks as the capture of the next record.
func (b *Buffer) capture(val []byte) {
	// Size the offsets for a full buffer once.
	b.off = slices.Grow(b.off, max(cap(b.Recs), len(b.Recs)+1)-len(b.off))
	for len(b.off) < len(b.Recs) {
		b.off = append(b.off, -1)
	}
	if c := b.used - 1; c < 0 || len(b.chunks[c]) >= chunkBytes || cap(b.chunks[c])-len(b.chunks[c]) < len(val) {
		// Take the first spare chunk big enough, else a new one.
		i := b.used
		for i < len(b.chunks) && cap(b.chunks[i]) < len(val) {
			i++
		}
		if i == len(b.chunks) {
			b.chunks = append(b.chunks, make([]byte, 0, max(chunkBytes, len(val))))
		}
		b.chunks[b.used], b.chunks[i] = b.chunks[i], b.chunks[b.used]
		b.used++
	}
	c := &b.chunks[b.used-1]
	b.off = append(b.off, int32((b.used-1)*chunkBytes+len(*c)))
	*c = append(*c, val...)
}

// RangeVal returns the bytes record i's range held when the load ran, or
// nil when the record is not a captured load range. The slice aliases
// the buffer; it is valid until the buffer is recycled.
func (b *Buffer) RangeVal(i int) []byte {
	if i >= len(b.off) || b.off[i] < 0 {
		return nil
	}
	c, start := int(b.off[i])/chunkBytes, int(b.off[i])%chunkBytes
	return b.chunks[c][start : start+int(b.Recs[i].Bytes())]
}

// reset empties the buffer, keeping its storage.
func (b *Buffer) reset() {
	for i := range b.chunks[:b.used] {
		b.chunks[i] = b.chunks[i][:0]
	}
	b.Recs, b.off, b.used = b.Recs[:0], b.off[:0], 0
}

// Stats reports instrumentation volume.
type Stats struct {
	Records          uint64 // access records captured
	Flushes          uint64 // device->host buffer copies
	LaunchesSeen     int
	LaunchesProfiled int

	// DroppedFlushes/DroppedRecords count deliveries and records lost to
	// injected buffer faults; nonzero values mean the run is degraded.
	DroppedFlushes uint64
	DroppedRecords uint64
}

// Engine instruments kernel launches. Instrument/finish/hook calls happen
// on the kernel-execution goroutine (the runtime serializes launches);
// Recycle may be called from any goroutine.
type Engine struct {
	cfg Config

	// free holds the idle flush buffers. The hook takes a buffer, fills
	// it, hands it to the analyzer via flush, and takes the next one —
	// allocating it while fewer than depth exist (made), and otherwise
	// blocking until one is recycled, which is the pipeline's
	// backpressure.
	free chan *Buffer
	made int
	cur  *Buffer

	// held is a delivery an injected flush-delay fault is holding back; it
	// goes out (in order) before the next delivery or at launch end.
	held *Buffer

	launches map[string]int
	stats    Stats
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.BufferRecords <= 0 {
		cfg.BufferRecords = DefaultBufferRecords
	}
	return &Engine{
		cfg:      cfg,
		free:     make(chan *Buffer, depth),
		launches: make(map[string]int),
	}
}

// take returns an empty flush buffer: an idle one, a new one while fewer
// than depth exist, or else the next one recycled.
func (e *Engine) take() *Buffer {
	select {
	case buf := <-e.free:
		return buf
	default:
	}
	if e.made < depth {
		e.made++
		return &Buffer{Recs: make([]gpu.Access, 0, e.cfg.BufferRecords)}
	}
	if wait := e.cfg.Probes.Wait; wait != nil {
		wait(true)
		defer wait(false)
	}
	return <-e.free
}

// Buffers reports how many flush buffers the engine holds, idle or in
// flight.
func (e *Engine) Buffers() int { return e.made }

// Release drops the idle flush buffers; the next launch allocates afresh.
// The caller must hold no delivered buffer: every flush has been
// recycled, as after a launch's analysis completes.
func (e *Engine) Release() {
	e.cur, e.held = nil, nil
	for {
		select {
		case <-e.free:
		default:
			e.made = 0
			return
		}
	}
}

// Stats returns accumulated instrumentation statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Instrument decides whether the upcoming launch of kernelName is
// monitored and, if so, returns the access hook, the block filter, and a
// finish function that flushes the final partial buffer. The hook
// stamps each record with the ID of the mem allocation containing it
// (-1 outside every allocation) and, when capture is set, copies each
// load range's bytes from that allocation as the load runs; a range
// overrunning its allocation gets no capture. flush receives ownership
// of each full (or final) buffer; the consumer must hand it back with
// Recycle once done with it (possibly from another goroutine) or the
// collector eventually blocks waiting for a free buffer.
//
// When the launch is filtered or sampled out, hook is nil and finish is a
// no-op; the kernel still runs natively.
func (e *Engine) Instrument(kernelName string, mem *gpu.Memory, capture bool, flush func(*Buffer)) (hook gpu.AccessFunc, blockFilter func(int32) bool, finish func()) {
	e.stats.LaunchesSeen++
	if e.cfg.KernelFilter != nil && !e.cfg.KernelFilter(kernelName) {
		return nil, nil, func() {}
	}
	n := e.launches[kernelName]
	e.launches[kernelName] = n + 1
	if p := e.cfg.KernelSamplingPeriod; p > 1 && n%p != 0 {
		return nil, nil, func() {}
	}
	e.stats.LaunchesProfiled++

	if e.cur == nil {
		e.cur = e.take()
	}
	e.cur.reset()
	// alloc caches the last record's object: coalesced warps make
	// consecutive records overwhelmingly hit the same one, and no API can
	// free memory while the kernel runs.
	var alloc *gpu.Allocation
	hook = func(a gpu.Access) {
		if alloc == nil || !alloc.Contains(a.Addr) {
			alloc = mem.Lookup(a.Addr)
		}
		a.Obj = -1
		var val []byte
		if alloc != nil {
			a.Obj = int32(alloc.ID)
			if off := a.Addr - alloc.Addr; capture && a.Count > 1 && !a.Store && a.Bytes() <= alloc.Size-off {
				val = alloc.Data[off : off+a.Bytes()]
			}
		}
		e.cur.Append(a, val)
		e.stats.Records++
		if len(e.cur.Recs) >= e.cfg.BufferRecords {
			buf := e.cur
			e.cur = nil
			e.deliver(buf, flush)
			e.cur = e.take()
		}
	}
	if p := e.cfg.BlockSamplingPeriod; p > 1 {
		blockFilter = func(b int32) bool { return int(b)%p == 0 }
	}
	finish = func() {
		if e.cur != nil && len(e.cur.Recs) > 0 {
			buf := e.cur
			e.cur = nil
			e.deliver(buf, flush)
		}
		// A delivery still delayed at launch end goes out now: delay is
		// late, never lossy.
		if e.held != nil {
			h := e.held
			e.held = nil
			e.flushOut(h, flush)
		}
	}
	return hook, blockFilter, finish
}

// deliver hands one full (or final) buffer to the analyzer, applying any
// injected delivery faults: drop loses the buffer, truncate loses its
// second half, delay holds it back until the next delivery or launch end.
func (e *Engine) deliver(buf *Buffer, flush func(*Buffer)) {
	if e.held != nil {
		// Flush order is preserved: the delayed buffer goes out first.
		h := e.held
		e.held = nil
		e.flushOut(h, flush)
	}
	if _, ok := e.cfg.Faults.Fire(faultinject.FlushDrop); ok {
		e.stats.DroppedFlushes++
		e.stats.DroppedRecords += uint64(len(buf.Recs))
		e.cfg.Probes.DroppedFlushes.Inc()
		e.cfg.Probes.DroppedRecords.Add(uint64(len(buf.Recs)))
		e.Recycle(buf)
		return
	}
	if _, ok := e.cfg.Faults.Fire(faultinject.FlushTruncate); ok {
		lost := len(buf.Recs) - len(buf.Recs)/2
		e.stats.DroppedRecords += uint64(lost)
		e.cfg.Probes.DroppedRecords.Add(uint64(lost))
		buf.Recs = buf.Recs[:len(buf.Recs)/2]
	}
	if _, ok := e.cfg.Faults.Fire(faultinject.FlushDelay); ok && (len(e.free) > 0 || e.made < depth) {
		// Hold the delivery back — but only while a spare buffer exists
		// or may be allocated. Otherwise the collector's next buffer wait
		// would need the analyzer to recycle a buffer without receiving a
		// new one, which a consumer that keeps its latest buffer until the
		// next arrives never does: a deadlock.
		e.held = buf
		return
	}
	e.flushOut(buf, flush)
}

// flushOut is the fault-free tail of a delivery: account and hand off.
func (e *Engine) flushOut(buf *Buffer, flush func(*Buffer)) {
	e.stats.Flushes++
	e.cfg.Probes.Flushes.Inc()
	e.cfg.Probes.Records.Add(uint64(len(buf.Recs)))
	flush(buf)
}

// Abort discards the collector's in-flight state after a failed launch:
// the held delayed delivery returns to the pool and the partial current
// buffer is cleared. The records lost here belong to a launch the report
// already counts as skipped, so they are not added to the dropped totals.
func (e *Engine) Abort() {
	if e.held != nil {
		e.Recycle(e.held)
		e.held = nil
	}
	if e.cur != nil {
		e.cur.reset()
	}
}

// Recycle returns a buffer previously handed to flush to the free pool,
// emptied but keeping its storage. Safe to call from any goroutine. Each
// flushed buffer must be recycled exactly once; a foreign or
// doubly-recycled buffer that would overfill the pool is dropped.
func (e *Engine) Recycle(buf *Buffer) {
	buf.reset()
	select {
	case e.free <- buf:
	default:
	}
}
