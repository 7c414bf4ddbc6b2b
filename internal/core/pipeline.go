// The analysis pipeline: the reproduction of paper §6.1's overlap of data
// collection and online analysis. Each profiler has one analysis
// goroutine. A flushed batch arrives complete: the sanitizer hook stamped
// each record's data object and captured load-range values at access
// time. The kernel-execution goroutine keeps what reads device or
// allocation state: at each flush it runs the stages that may read the
// device (coarse, custom Config.Analyses) into their launch accumulators.
// It then hands the batch to the analysis goroutine, which runs the
// batch-only built-in stages (fine, reuse distance) and, after a launch's
// last batch, finalizes them, in FIFO order, while the kernel goroutine
// runs the next API. Every stage sees each launch's accesses
// once, in flush order, so the report is the one fully synchronous
// analysis emits, by construction. The sanitizer cycles at most four
// flush buffers: §6.1's double buffering, deepened so that while one
// fills, the analysis goroutine may still hold three, and the kernel
// goroutine can run up to three launches (one Darknet layer) ahead. A
// flush that finds all four in flight waits, which bounds how far
// analysis falls behind collection and caps the buffers at
// 4 × BufferRecords × 40 B per running profiler.
package core

import (
	"sync"
	"time"

	"valueexpert/cuda"
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
	// flush buffers.
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
	a.san.Recycle(t.b)
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

// barrier waits for the analysis goroutine to empty its queue; every
// launch it finalized is then owned by the caller. The wait, analysis
// the pipeline failed to hide, is the drain-wait layer.
func (p *Profiler) barrier() {
	defer p.clock.enter(p.clock.enter(layerDrainWait))
	p.an.wait()
}

// flush, the flush layer, is the kernel goroutine's share of one flushed
// batch of launch ls: the stages that may read the device, then the
// hand-off of the batch-only stages' work.
func (p *Profiler) flush(ls *launchState, b *Batch) {
	p.tel.Instant(telemetry.LaneKernel, "sanitizer", "flush")
	defer p.clock.enter(p.clock.enter(layerFlush))
	p.an.analyze(ls, b, false)
	if ls.async {
		p.an.submit(task{ls: ls, b: b})
	} else {
		p.an.san.Recycle(b)
	}
}
