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
// analyzer: one filling while the analyzer drains the other, paper §6.1's
// double buffering. The second is allocated only when a flush finds the
// first still in flight.
const depth = 2

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
	free chan []gpu.Access
	made int
	cur  []gpu.Access

	// held is a delivery an injected flush-delay fault is holding back; it
	// goes out (in order) before the next delivery or at launch end.
	held []gpu.Access

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
		free:     make(chan []gpu.Access, depth),
		launches: make(map[string]int),
	}
}

// take returns an empty flush buffer: an idle one, a new one while fewer
// than depth exist, or else the next one recycled.
func (e *Engine) take() []gpu.Access {
	select {
	case buf := <-e.free:
		return buf
	default:
	}
	if e.made < depth {
		e.made++
		return make([]gpu.Access, 0, e.cfg.BufferRecords)
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
// finish function that flushes the final partial buffer. flush receives
// ownership of each full (or final) buffer; the consumer must hand the
// slice back with Recycle once done with it (possibly from another
// goroutine) or the collector eventually blocks waiting for a free
// buffer.
//
// When the launch is filtered or sampled out, hook is nil and finish is a
// no-op; the kernel still runs natively.
func (e *Engine) Instrument(kernelName string, flush func([]gpu.Access)) (hook gpu.AccessFunc, blockFilter func(int32) bool, finish func()) {
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
	e.cur = e.cur[:0]
	hook = func(a gpu.Access) {
		e.cur = append(e.cur, a)
		e.stats.Records++
		if len(e.cur) >= e.cfg.BufferRecords {
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
		if len(e.cur) > 0 {
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
func (e *Engine) deliver(buf []gpu.Access, flush func([]gpu.Access)) {
	if e.held != nil {
		// Flush order is preserved: the delayed buffer goes out first.
		h := e.held
		e.held = nil
		e.flushOut(h, flush)
	}
	if _, ok := e.cfg.Faults.Fire(faultinject.FlushDrop); ok {
		e.stats.DroppedFlushes++
		e.stats.DroppedRecords += uint64(len(buf))
		e.cfg.Probes.DroppedFlushes.Inc()
		e.cfg.Probes.DroppedRecords.Add(uint64(len(buf)))
		e.Recycle(buf)
		return
	}
	if _, ok := e.cfg.Faults.Fire(faultinject.FlushTruncate); ok {
		lost := len(buf) - len(buf)/2
		e.stats.DroppedRecords += uint64(lost)
		e.cfg.Probes.DroppedRecords.Add(uint64(lost))
		buf = buf[:len(buf)/2]
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
func (e *Engine) flushOut(buf []gpu.Access, flush func([]gpu.Access)) {
	e.stats.Flushes++
	e.cfg.Probes.Flushes.Inc()
	e.cfg.Probes.Records.Add(uint64(len(buf)))
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
		e.cur = e.cur[:0]
	}
}

// Recycle returns a buffer previously handed to flush to the free pool.
// Safe to call from any goroutine. Each flushed buffer must be recycled
// exactly once; a foreign or doubly-recycled slice that would overfill
// the pool is dropped.
func (e *Engine) Recycle(buf []gpu.Access) {
	select {
	case e.free <- buf[:0]:
	default:
	}
}
