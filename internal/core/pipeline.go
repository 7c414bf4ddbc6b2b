// The analysis pipeline: the reproduction of paper §6.1's overlap of data
// collection and online analysis. Each profiler has one analysis
// goroutine. The kernel-execution goroutine keeps what reads device or
// allocation state: at each flush it resolves the batch's data objects,
// captures the values behind load ranges and runs the stages that may
// read the device (coarse, custom Config.Analyses) into their launch
// accumulators. It then hands the batch to the analysis goroutine, which
// runs the batch-only built-in stages (fine, reuse distance) and, after a
// launch's last batch, finalizes them, in FIFO order, while the kernel
// goroutine runs the next API. Every stage sees each launch's accesses
// once, in flush order, so the report is the one fully synchronous
// analysis emits, by construction. The sanitizer cycles at most two flush
// buffers, one filling while the analysis goroutine drains the other
// (§6.1's double buffering); a flush that finds both in flight waits,
// which bounds how far analysis falls behind collection.
package core

import (
	"sync"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/sanitizer"
	"valueexpert/internal/telemetry"
)

// task is one entry of the analysis goroutine's FIFO queue: a flushed
// batch of launch ls or, when b is nil, the marker that ls has ended.
type task struct {
	ls *launchState
	b  *Batch
}

// analyzer runs the stages on a profiler's batches and launch ends, on
// the kernel goroutine or on the analysis goroutine it owns with its
// FIFO queue. The goroutine starts when a task arrives at an empty queue
// and exits once the queue is empty again, so no goroutine outlives the
// work it was given. The analyzer holds no pointer to its Profiler: a
// cycle through the profiler would keep a runtime finalizer on it from
// ever running.
type analyzer struct {
	// stages, probes and tel are the profiler's; async[i] marks the
	// batch-only stages, run on the analysis goroutine; san recycles the
	// record buffers.
	stages []Analysis
	async  []bool
	probes engineProbes
	tel    *telemetry.Recorder
	san    *sanitizer.Engine

	mu      sync.Mutex
	idle    sync.Cond // broadcast when the goroutine exits
	queue   []task
	head    int
	running bool
	// spare holds recycled Batch shells (ID slices, capture buffers).
	spare []*Batch
	// run drains the queue; prebuilt so starting the goroutine allocates
	// nothing.
	run func()
	// inline makes submit drain the queue on the calling goroutine. Only
	// the synchronous reference driver of the tests sets it.
	inline bool
	// busy sums the goroutine's runs, start to empty queue (Overhead).
	busy time.Duration
}

func newAnalyzer(p *Profiler) *analyzer {
	a := &analyzer{stages: p.stages, probes: p.probes, tel: p.tel, san: p.san}
	for _, st := range p.stages {
		_, ok := st.(batchOnly)
		a.async = append(a.async, ok)
	}
	a.idle.L = &a.mu
	a.run = func() {
		start := time.Now()
		a.mu.Lock()
		for a.head < len(a.queue) {
			t := a.queue[a.head]
			a.queue[a.head] = task{}
			a.head++
			a.mu.Unlock()
			a.runTask(t)
			a.mu.Lock()
		}
		a.queue, a.head = a.queue[:0], 0
		a.busy += time.Since(start)
		a.running = false
		a.idle.Broadcast()
		a.mu.Unlock()
	}
	return a
}

// submit queues t, starting the analysis goroutine if it is not running.
func (a *analyzer) submit(t task) {
	a.mu.Lock()
	a.queue = append(a.queue, t)
	start := !a.running
	a.running = true
	a.mu.Unlock()
	switch {
	case !start:
	case a.inline:
		a.run()
	default:
		go a.run()
	}
}

// wait blocks until the analysis goroutine has emptied its queue.
func (a *analyzer) wait() {
	a.mu.Lock()
	for a.running {
		a.idle.Wait()
	}
	a.mu.Unlock()
}

// runTask executes one queued task on the analysis goroutine.
func (a *analyzer) runTask(t task) {
	if t.b == nil {
		sp := a.tel.Span(telemetry.LaneAnalysis, "analysis", "finalize")
		a.finalize(&t.ls.ev, t.ls, true)
		sp.End()
		return
	}
	sp := a.tel.Span(telemetry.LaneAnalysis, "analysis", "analyze")
	a.analyze(t.ls, t.b, true)
	sp.End()
	a.release(t.b)
}

// analyze runs one batch through the launch's stages that run on the
// analysis goroutine (async) or on the kernel goroutine (!async), in
// registration order.
func (a *analyzer) analyze(ls *launchState, b *Batch, async bool) {
	for i, la := range ls.stages {
		if la == nil || a.async[i] != async {
			continue
		}
		sw := a.probes.analyze[i].Start()
		la.Analyze(b)
		sw.Stop()
		a.probes.batches[i].Inc()
	}
}

// finalize calls LaunchEnd on the stages that run on the analysis
// goroutine (async) or on the kernel goroutine (!async), in registration
// order. ls is nil for a launch no stage observed; only the kernel
// goroutine's stages finalize those.
func (a *analyzer) finalize(ev *cuda.APIEvent, ls *launchState, async bool) {
	for i, st := range a.stages {
		if a.async[i] != async {
			continue
		}
		var la LaunchAnalysis
		if ls != nil {
			la = ls.stages[i]
		}
		sw := a.probes.finalize[i].Start()
		st.LaunchEnd(ev, la)
		sw.Stop()
	}
}

// newBatch wraps a flushed record buffer in a recycled Batch whose ID and
// range-capture allocations carry over from earlier flushes.
func (a *analyzer) newBatch(recs []gpu.Access) *Batch {
	var b *Batch
	a.mu.Lock()
	if n := len(a.spare); n > 0 {
		b = a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
	}
	a.mu.Unlock()
	if b == nil {
		b = &Batch{}
	}
	b.Recs = recs
	return b
}

// release returns the batch shell to the spares and then the record
// buffer to the sanitizer, so a flush that was waiting for the buffer
// finds the shell already back. Called once every stage has analyzed the
// batch.
func (a *analyzer) release(b *Batch) {
	recs := b.Recs
	b.Recs = nil
	b.IDs = b.IDs[:0]
	b.rangeOff = b.rangeOff[:0]
	b.rangeBytes = b.rangeBytes[:0]
	a.mu.Lock()
	a.spare = append(a.spare, b)
	a.mu.Unlock()
	a.san.Recycle(recs)
}

// dropSpares releases the recycled batch shells.
func (a *analyzer) dropSpares() {
	a.mu.Lock()
	a.spare = nil
	a.mu.Unlock()
}

// barrier waits for the analysis goroutine to empty its queue; every
// launch it finalized is then owned by the caller. The wait, analysis
// the pipeline failed to hide, is the drain-wait layer.
func (p *Profiler) barrier() {
	defer p.clock.enter(p.clock.enter(layerDrainWait))
	p.an.wait()
}

// flush, the flush layer, is the kernel goroutine's share of one flushed
// buffer of launch ls: object resolution, value capture, the stages that
// may read the device, then the hand-off of the batch-only stages' work.
func (p *Profiler) flush(ls *launchState, recs []gpu.Access) {
	defer p.clock.enter(p.clock.enter(layerFlush))
	b := p.an.newBatch(recs)
	p.resolveObjects(b)
	if ls.needVals {
		b.captureRangeLoads(p.rt.Device().Mem)
	}
	p.an.analyze(ls, b, false)
	if ls.async {
		p.an.submit(task{ls: ls, b: b})
	} else {
		p.an.release(b)
	}
}

// resolveObjects fills b.IDs with each record's containing data object,
// reusing the batch's slice across flushes. Consecutive records
// overwhelmingly hit the same object (coalesced warps), so one cached
// allocation covers almost every lookup.
func (p *Profiler) resolveObjects(b *Batch) {
	mem := p.rt.Device().Mem
	if cap(b.IDs) < len(b.Recs) {
		b.IDs = make([]int, len(b.Recs))
	} else {
		b.IDs = b.IDs[:len(b.Recs)]
	}
	var cached *gpu.Allocation
	for i, a := range b.Recs {
		alloc := cached
		if alloc == nil || !alloc.Contains(a.Addr) {
			alloc = mem.Lookup(a.Addr)
			cached = alloc
		}
		if alloc == nil {
			b.IDs[i] = -1 // defensive: racing frees
			continue
		}
		b.IDs[i] = alloc.ID
	}
}

// captureRangeLoads bulk-reads the device bytes behind every compacted
// load-range record — one Memory.Read per record instead of one LoadRaw
// per element — so the stages decode element values from a stable host
// copy while the kernel keeps mutating device memory. Captures pack into
// the batch's reusable buffer, sized once from the batch's total range
// bytes; a read that fails (a malformed range straddling allocations)
// leaves offset -1 and the record contributes no fine-grained values.
func (b *Batch) captureRangeLoads(mem *gpu.Memory) {
	total := 0
	for _, a := range b.Recs {
		if a.Count > 1 && !a.Store {
			total += int(a.Bytes())
		}
	}
	if total == 0 {
		return
	}
	if cap(b.rangeBytes) < total {
		b.rangeBytes = make([]byte, 0, total)
	}
	// Index every record as uncaptured.
	if cap(b.rangeOff) < len(b.Recs) {
		b.rangeOff = make([]int32, len(b.Recs))
	} else {
		b.rangeOff = b.rangeOff[:len(b.Recs)]
	}
	for i, a := range b.Recs {
		b.rangeOff[i] = -1
		if a.Count <= 1 || a.Store {
			continue
		}
		n := int(a.Bytes())
		off := len(b.rangeBytes)
		if err := mem.Read(a.Addr, b.rangeBytes[off:off+n]); err != nil {
			continue
		}
		b.rangeBytes = b.rangeBytes[:off+n]
		b.rangeOff[i] = int32(off)
	}
}
