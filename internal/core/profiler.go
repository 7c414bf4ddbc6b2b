// Package core implements ValueExpert itself as a staged
// collection→analysis engine. The engine owns data collection — GPU API
// interception, sanitizer buffers, the analysis goroutine — and drives
// pluggable Analysis stages (paper §4, Figure 1): the coarse analyzer
// maintains value snapshots and the value flow graph, the fine analyzer
// recognizes per-access value patterns, and the reuse-distance analyzer
// rides the same instrumented stream.
package core

import (
	"fmt"
	"time"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/interval"
	"valueexpert/internal/profile"
	"valueexpert/internal/sanitizer"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/vflow"
	"valueexpert/internal/vpattern"
)

// Config selects ValueExpert's analyses and their cost controls.
type Config struct {
	// Coarse enables coarse-grained value pattern analysis (redundant and
	// duplicate values via snapshots, §5.1) and value-flow-graph
	// construction.
	Coarse bool
	// Fine enables fine-grained value pattern analysis of instrumented
	// accesses (§5.1).
	Fine bool

	// FineConfig tunes fine-grained recognition thresholds.
	FineConfig vpattern.FineConfig

	// Patterns selects the value-pattern detectors to run, by registry
	// name (vpattern.Names). nil runs every pattern enabled by default;
	// an empty non-nil slice disables them all. A pattern left out is
	// never constructed — it costs no per-access work, emits no report
	// rows, and yields no suggestions. Unknown names panic in Attach;
	// callers taking user input validate with vpattern.ParseSet first.
	Patterns []string

	// Instrumentation scope and sampling (§6.2).
	BufferRecords        int
	KernelFilter         func(name string) bool
	KernelSamplingPeriod int
	BlockSamplingPeriod  int

	// CopyStrategy selects the snapshot-update copy strategy (§6.1,
	// Figure 5); AdaptiveCopy runs whichever of the min-max and segment
	// plans the device's copy cost prices lower. The zero value is
	// DirectCopy, which the CLIs, vxprofd and the benchmark all run:
	// cliconfig never sets the field.
	CopyStrategy interval.CopyStrategy

	// AnalysisWorkers and PipelineDepth are ignored: every profiler runs
	// one analysis goroutine over at most four flush buffers, §6.1's
	// double buffering deepened (pipeline.go).
	// They remain only because the benchmark module (bench/ops.go) still
	// sets them.
	AnalysisWorkers int
	PipelineDepth   int

	// ReuseDistance additionally computes per-kernel reuse-distance
	// histograms from the instrumented access stream — the follow-on
	// analysis the paper's conclusion proposes offloading onto this
	// measurement pipeline. Requires Coarse or Fine.
	ReuseDistance bool

	// RetainDeadObjects bounds how many freed data objects keep their
	// report state (object-table entry, coarse/fine records, flow-graph
	// edges, duplicate groups). 0 — the default — retains everything, the
	// one-shot behaviour. A positive bound evicts the least-recently-freed
	// objects' state once the dead set exceeds twice the bound (see
	// evict.go), keeping long-lived daemon sessions bounded in memory;
	// reported state for live and retained objects is unaffected.
	RetainDeadObjects int

	// Analyses registers additional custom stages after the built-in ones.
	// Each factory runs once per attached profiler, so every device gets
	// fresh stage state.
	Analyses []AnalysisFactory

	// Telemetry, when non-nil, threads self-observation probes through
	// every engine layer: per-stage timers and counters, pipeline and
	// merge metrics, and (with a trace sink attached to the recorder)
	// a Chrome trace-event self-trace. nil — the default — keeps the
	// engine's hot paths probe-free; enabling telemetry never perturbs
	// the emitted report.
	Telemetry *telemetry.Recorder

	// Program names the profiled application in reports.
	Program string
}

// Profiler is a ValueExpert instance attached to one runtime. It is the
// collection engine: stages do the analysis.
type Profiler struct {
	cfg      Config
	patterns vpattern.Set
	rt       *cuda.Runtime

	tree  *callpath.Tree
	graph *vflow.Graph
	san   *sanitizer.Engine

	// stages are the registered analyses, lifecycle-driven in this order.
	stages []Analysis
	// coarse is the built-in coarse stage when Config.Coarse is set; the
	// Session's cross-device duplicate analysis reads its snapshot hashes.
	coarse *coarseStage

	objects []profile.Object

	launch *launchState

	// Degradation accounting: pending is the API event that has begun but
	// not yet ended (APIEnd never firing means the API failed), failedAPIs
	// collects those that never completed, skippedLaunches counts
	// instrumented launches whose analysis Drain discarded.
	pending         string
	failedAPIs      []string
	skippedLaunches int

	// Dead-object tracking (evict.go): pendingFree is the ID of the object
	// a cudaFree in flight is releasing (-1 when none), resolved in
	// APIBegin while still addressable; deadIDs lists freed objects in
	// free order, the engine's LRU order.
	pendingFree    int
	deadIDs        []int
	evictedObjects int

	clock *clock // the kernel goroutine's layer clock (telemetry.go)

	// an runs the stages, here and on the analysis goroutine
	// (pipeline.go).
	an *analyzer

	// tel and probes are the self-observability layer; tel is nil (and
	// every probe a no-op) unless Config.Telemetry carries a recorder.
	tel    *telemetry.Recorder
	probes engineProbes
}

// launchState tracks one instrumented kernel launch: the sanitizer's
// finish hook, each stage's per-launch accumulator (indexed like
// Profiler.stages; nil for stages sitting this launch out), whether any
// stage needs access-time value capture or runs on the analysis goroutine,
// the completed launch event the analysis goroutine finalizes with, and
// the launch's self-trace span on the kernel-execution lane.
type launchState struct {
	finish   func()
	stages   []LaunchAnalysis
	needVals bool
	async    bool
	ev       cuda.APIEvent
	span     telemetry.Span
}

// Attach creates a profiler and installs it as rt's interceptor. The
// configuration must pass Validate; Attach panics on an invalid one (the
// historical contract — error-returning callers go through Profile or
// NewSession, which route the same validator's error back).
func Attach(rt *cuda.Runtime, cfg Config) *Profiler {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	patterns, err := vpattern.ParseSet(cfg.Patterns)
	if err != nil {
		panic("core: " + err.Error())
	}
	p := &Profiler{
		cfg:         cfg,
		patterns:    patterns,
		rt:          rt,
		tree:        callpath.NewTree(),
		pendingFree: -1,
		clock:       &clock{},
	}
	p.graph = vflow.New(p.tree)

	// Stages share cfg, a copy of p.cfg: a pointer into p would make the
	// profiler reachable from its own stages, and a runtime finalizer
	// never runs on such a cycle.
	env := Env{RT: rt, Tree: p.tree, Graph: p.graph, Cfg: &cfg, Patterns: patterns, Tel: cfg.Telemetry}
	if cfg.Coarse {
		p.coarse = newCoarseStage(env)
		p.stages = append(p.stages, p.coarse)
	}
	if cfg.Fine {
		p.stages = append(p.stages, newFineStage(env))
	}
	if cfg.ReuseDistance {
		p.stages = append(p.stages, newReuseStage(env))
	}
	for _, f := range cfg.Analyses {
		p.stages = append(p.stages, f(env))
	}

	p.initTelemetry()
	p.san = sanitizer.New(sanitizer.Config{
		BufferRecords:        cfg.BufferRecords,
		KernelFilter:         cfg.KernelFilter,
		KernelSamplingPeriod: cfg.KernelSamplingPeriod,
		BlockSamplingPeriod:  cfg.BlockSamplingPeriod,
		Probes:               p.sanitizerProbes(),
		// The runtime's armed fault plan (if any) also drives the
		// sanitizer's buffer-delivery fault points — arm before Attach.
		Faults: rt.Faults(),
	})
	p.an = newAnalyzer(p)
	p.clock.reset(time.Now)
	rt.SetInterceptor(p)
	return p
}

// Profile attaches a profiler configured by cfg to src's runtime and runs
// the source's event stream through it. Live execution and trace replay
// are both event sources, so this is the one entry point for either mode.
// An invalid configuration returns its validation error with a nil
// profiler; once attached, the profiler is returned even on a stream
// error, holding whatever the stream produced before failing.
func Profile(src cuda.EventSource, cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cuda.Drive(src, func(rt *cuda.Runtime) *Profiler { return Attach(rt, cfg) })
}

// Detach removes the profiler from its runtime, waits for the analysis
// goroutine, then drops the idle flush buffers and the fine accumulator.
// Reports stay readable; a profiler installed again allocates them
// afresh.
func (p *Profiler) Detach() {
	p.rt.SetInterceptor(nil)
	p.barrier()
	p.san.Release()
	for _, st := range p.stages {
		if f, ok := st.(*fineStage); ok {
			f.release()
		}
	}
}

// Graph returns the program-wide value flow graph built so far.
func (p *Profiler) Graph() *vflow.Graph { return p.graph }

// Tree returns the calling-context tree.
func (p *Profiler) Tree() *callpath.Tree { return p.tree }

// instrumenting reports whether any registered stage consumes per-access
// records.
func (p *Profiler) instrumenting() bool {
	for _, st := range p.stages {
		if st.NeedsAccesses() {
			return true
		}
	}
	return false
}

// APIBegin implements cuda.Interceptor: stages observe the event before
// its device effect (frees are still addressable).
func (p *Profiler) APIBegin(ev *cuda.APIEvent) {
	defer p.clock.enter(p.clock.enter(layerAPI))
	// An API still pending from the previous Begin never ended: it failed.
	if p.pending != "" {
		p.failedAPIs = append(p.failedAPIs, p.pending)
		p.probes.failedAPIs.Inc()
	}
	p.pending = fmt.Sprintf("%s %q (seq %d)", ev.Kind, ev.Name, ev.Seq)
	if ev.Kind == cuda.APILaunch {
		return
	}
	if ev.Kind == cuda.APIFree {
		// Resolve the dying object's ID while it is still addressable; the
		// free joins the dead list only when its APIEnd confirms success.
		p.pendingFree = -1
		if a := p.rt.Device().Mem.Lookup(ev.Dst); a != nil {
			p.pendingFree = a.ID
		}
	}
	for _, st := range p.stages {
		st.APIBegin(ev)
	}
}

// Instrumentation implements cuda.Interceptor: it consults the sanitizer
// engine for the upcoming launch and opens each stage's per-launch
// accumulator; the flushed buffers then flow through Profiler.flush.
func (p *Profiler) Instrumentation(kernelName string) (gpu.AccessFunc, func(int32) bool) {
	if !p.instrumenting() {
		return nil, nil
	}
	defer p.clock.enter(p.clock.enter(layerAPI))
	// A leftover launch means the previous kernel failed mid-execution
	// (its APIEnd never fired); discard its state before reusing buffers.
	if p.launch != nil {
		p.Drain()
	}
	ls := &launchState{stages: make([]LaunchAnalysis, len(p.stages))}
	for i, st := range p.stages {
		if !st.NeedsAccesses() {
			continue
		}
		if ls.stages[i] = st.LaunchBegin(kernelName); ls.stages[i] != nil {
			ls.needVals = ls.needVals || st.NeedsValues()
			ls.async = ls.async || p.an.async[i]
		}
	}
	hook, filter, finish := p.san.Instrument(kernelName, p.rt.Device().Mem, ls.needVals, func(b *Batch) { p.flush(ls, b) })
	if hook == nil {
		p.launch = nil
		return nil, nil
	}
	ls.finish = finish
	ls.span = p.tel.Span(telemetry.LaneKernel, "kernel", kernelName)
	p.launch = ls
	return hook, filter
}

// Drain implements cuda.Drainer: it quiesces and discards any in-flight
// launch state. The runtime calls it when the interceptor is replaced or
// a kernel fails mid-execution: the analysis goroutine finishes with the
// partial launch's batches, whose analysis is dropped, and the
// sanitizer's buffers return to its pool. Safe with no launch in flight,
// and idempotent.
func (p *Profiler) Drain() {
	ls := p.launch
	p.launch = nil
	if ls == nil {
		return
	}
	// A launch still in flight here failed mid-execution (a completed one
	// clears p.launch in onLaunch); its analysis is discarded, so the
	// report must mark the run degraded.
	p.skippedLaunches++
	p.probes.skippedLaunches.Inc()
	ls.span.End() // the aborted kernel still shows on its trace lane
	p.barrier()
	// Release the sanitizer's in-flight buffers (the partial current
	// buffer and any delayed delivery) so the next launch starts clean.
	p.san.Abort()
}

// APIEnd implements cuda.Interceptor: launches are finalized through the
// stages' LaunchEnd, every other event is forwarded to their APIEnd.
func (p *Profiler) APIEnd(ev *cuda.APIEvent) {
	defer p.clock.enter(p.clock.enter(layerAPI))
	p.pending = "" // the API completed
	if ev.Kind == cuda.APILaunch {
		p.onLaunch(ev)
		return
	}
	if ev.Kind == cuda.APIMalloc {
		p.onMalloc(ev)
	}
	for _, st := range p.stages {
		st.APIEnd(ev)
	}
	if ev.Kind == cuda.APIFree {
		p.noteFree()
	}
}

// onMalloc records the new data object in the engine-level object table;
// stage-specific allocation work (snapshots, graph vertices) happens in
// the stages' APIEnd.
func (p *Profiler) onMalloc(ev *cuda.APIEvent) {
	a := p.rt.Device().Mem.Lookup(ev.Dst)
	if a == nil {
		return
	}
	ctx := p.tree.Intern(ev.Frames)
	p.objects = append(p.objects, profile.Object{
		ID: a.ID, Tag: a.Tag, Size: a.Size, CallPath: p.tree.Format(ctx),
	})
}

// onLaunch completes a kernel launch: the final buffer flushes, the
// stages run on this goroutine finalize in registration order, and the
// launch's end marker follows its batches to the analysis goroutine,
// which finalizes the batch-only stages.
func (p *Profiler) onLaunch(ev *cuda.APIEvent) {
	ls := p.launch
	p.launch = nil
	if ls != nil {
		ls.span.End() // close the kernel-execution trace lane
		ls.finish()   // flush the final partial buffer
	}
	p.an.finalize(ev, ls, false)
	if ls != nil && ls.async {
		ls.ev = *ev
		p.an.submit(task{ls: ls})
	}
}

// Report assembles the annotated profile once the analysis goroutine has
// finalized every launch: the engine contributes the run header, object
// table, and collection statistics; each stage contributes its findings.
func (p *Profiler) Report() *profile.Report {
	p.barrier()
	prev := p.clock.enter(layerReport)
	dev := p.rt.Device()
	st := dev.Stats()
	sanSt := p.san.Stats()
	rep := &profile.Report{
		Tool: "ValueExpert", Device: dev.Prof.Name, Program: p.cfg.Program,
		Objects: append([]profile.Object(nil), p.objects...),
		Stats: profile.RunStats{
			KernelLaunches:   st.KernelLaunches,
			LaunchesProfiled: sanSt.LaunchesProfiled,
			MemcpyCalls:      st.MemcpyCalls,
			MemsetCalls:      st.MemsetCalls,
			AllocCalls:       st.AllocCalls,
			AccessRecords:    sanSt.Records,
			BufferFlushes:    sanSt.Flushes,
			KernelTime:       st.KernelTime,
			MemoryTime:       st.MemoryTime(),
		},
	}
	// Record a non-default detector selection so report consumers know
	// which patterns ran; the default set stays implicit, keeping the
	// default-config report unchanged.
	if p.cfg.Patterns != nil {
		rep.EnabledPatterns = p.patterns.Names()
	}
	for _, stg := range p.stages {
		stg.Finish(rep)
	}
	rep.Degraded = p.degradedSection()
	p.clock.enter(prev)
	// The layers sum to the wall: all but the program is the profiler's.
	rep.Stats.AnalysisTime = p.clock.last.Sub(p.clock.start) - p.clock.spent[layerProgram]
	return rep
}

// degradedSection assembles the report's Degraded section, or nil when
// the run lost nothing — keeping clean-run reports byte-identical whether
// or not fault plumbing was armed.
func (p *Profiler) degradedSection() *profile.Degraded {
	d := &profile.Degraded{
		FailedAPIs:      append([]string(nil), p.failedAPIs...),
		SkippedLaunches: p.skippedLaunches,
	}
	// An API still pending at report time began and never completed.
	if p.pending != "" {
		d.FailedAPIs = append(d.FailedAPIs, p.pending)
	}
	sanSt := p.san.Stats()
	d.DroppedRecords = sanSt.DroppedRecords
	d.DroppedFlushes = sanSt.DroppedFlushes
	for _, inj := range p.rt.Faults().Fired() {
		d.InjectedFaults = append(d.InjectedFaults, inj.String())
	}
	if len(d.FailedAPIs) == 0 && d.SkippedLaunches == 0 &&
		d.DroppedRecords == 0 && d.DroppedFlushes == 0 && len(d.InjectedFaults) == 0 {
		return nil
	}
	return d
}

// String summarizes the profiler configuration.
func (p *Profiler) String() string {
	return fmt.Sprintf("ValueExpert(coarse=%v fine=%v strategy=%s)",
		p.cfg.Coarse, p.cfg.Fine, p.cfg.CopyStrategy)
}
