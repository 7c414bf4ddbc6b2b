// Engine self-observability: the always-on layer clock behind Overhead
// and, when Config.Telemetry carries a recorder, probes in every layer
// (sanitizer volume, the clock's layer timers, per-stage, merge and
// snapshot timers and counters) plus the two self-trace lanes. With a
// nil recorder every probe is nil and hot paths pay only pointer tests.
package core

import (
	"time"

	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/sanitizer"
	"valueexpert/internal/telemetry"
)

// engineProbes are the engine-owned probes, indexed to match
// Profiler.stages where per-stage. The slices are always allocated so
// hot paths index without branching; entries are nil when telemetry is
// off.
type engineProbes struct {
	// analyze/finalize/batches instrument each stage's work: per-batch
	// analysis and launch-end finalization.
	analyze  []*telemetry.Timer
	finalize []*telemetry.Timer
	batches  []*telemetry.Counter

	// failedAPIs counts runtime APIs that began but never completed;
	// skippedLaunches counts instrumented launches Drain discarded.
	failedAPIs      *telemetry.Counter
	skippedLaunches *telemetry.Counter

	// evictedObjects counts dead data objects whose report state the
	// engine evicted (Config.RetainDeadObjects).
	evictedObjects *telemetry.Counter
}

// initTelemetry builds the probe set (and, with a recorder, the metric
// registry and trace lanes). Called once from Attach, after stages are
// registered; must precede the sanitizer's construction so its probes
// exist.
func (p *Profiler) initTelemetry() {
	tel := p.cfg.Telemetry
	p.tel = tel
	n := len(p.stages)
	p.probes = engineProbes{
		analyze:  make([]*telemetry.Timer, n),
		finalize: make([]*telemetry.Timer, n),
		batches:  make([]*telemetry.Counter, n),
	}
	if tel == nil {
		return
	}
	tel.SetProgram(p.cfg.Program)
	p.clock.timers[layerFlush] = tel.Timer("collector.flush_capture")
	p.clock.timers[layerBufferWait] = tel.Timer("sanitizer.buffer_wait")
	p.clock.timers[layerDrainWait] = tel.Timer("pipeline.drain_wait")
	p.probes.failedAPIs = tel.Counter("engine.failed_apis")
	p.probes.skippedLaunches = tel.Counter("engine.skipped_launches")
	p.probes.evictedObjects = tel.Counter("engine.evicted_objects")
	if plan := p.rt.Faults(); plan != nil {
		// Count fired injections as they happen. The plan must be armed
		// before Attach for this wiring (and the sanitizer's) to exist.
		injected := tel.Counter("faults.injected")
		plan.SetOnFire(func(faultinject.Injection) { injected.Inc() })
	}
	for i, st := range p.stages {
		p.probes.analyze[i] = tel.Timer("stage." + st.Name() + ".analyze")
		p.probes.finalize[i] = tel.Timer("stage." + st.Name() + ".finalize")
		p.probes.batches[i] = tel.Counter("stage." + st.Name() + ".batches")
	}

	tel.DeclareLane(telemetry.LaneKernel, "kernel execution")
	tel.DeclareLane(telemetry.LaneAnalysis, "analysis")
}

// sanitizerProbes builds the sanitizer's probe set: the clock's stall
// hook, and counters that are nil (no-ops) with telemetry off.
func (p *Profiler) sanitizerProbes() sanitizer.Probes {
	return sanitizer.Probes{
		Flushes:        p.tel.Counter("sanitizer.flushes"),
		Records:        p.tel.Counter("sanitizer.records"),
		Wait:           p.clock.stall,
		DroppedFlushes: p.tel.Counter("sanitizer.dropped_flushes"),
		DroppedRecords: p.tel.Counter("sanitizer.dropped_records"),
	}
}

// Telemetry returns the recorder carried by the configuration (nil when
// self-observation is off).
func (p *Profiler) Telemetry() *telemetry.Recorder { return p.tel }

// Overhead returns the profiler's own cost breakdown (profile.Overhead)
// without Config.Telemetry. It moves no clock, so the caller's time after
// the run is in no layer; it waits for the analysis goroutine only to
// read that goroutine's busy total.
func (p *Profiler) Overhead() *profile.Overhead {
	p.an.wait()
	c := p.clock
	o := &profile.Overhead{Wall: c.last.Sub(c.start), AnalysisBusy: p.an.busy}
	if p.coarse != nil {
		o.SnapshotTime = p.coarse.snapshotTime
	}
	for l, d := range c.spent {
		o.Layers = append(o.Layers, profile.Layer{Name: layerNames[l], Time: d})
	}
	return o
}

// A layer is one exclusive part of the kernel goroutine's wall time; the
// profiler is in exactly one at any moment (DESIGN.md §7).
type layer uint8

const (
	layerProgram    layer = iota // the residual: the simulated program and the per-access hook
	layerFlush                   // object resolution, range capture, coarse/custom stages, hand-off
	layerBufferWait              // the sanitizer blocked on a free flush buffer
	layerAPI                     // stage API hooks, Instrumentation, launch finalization
	layerDrainWait               // barrier: waiting for the analysis goroutine
	layerReport                  // Report's assembly and the stages' Finish
	numLayers
)

var layerNames = [numLayers]string{"program", "flush", "buffer wait", "API", "drain wait", "report"}

// clock partitions the kernel goroutine's wall time into layers. Each
// switch reads the time once and charges the span since the previous
// switch to the layer being left, so nested work, such as a launch's
// final flush inside APIEnd, is counted once by construction.
type clock struct {
	now         func() time.Time // time.Now; only tests replace it
	start, last time.Time
	cur         layer
	spent       [numLayers]time.Duration
	// timers receive each span of the layer left; nil (a no-op) with
	// telemetry off and for layers without a metric.
	timers [numLayers]*telemetry.Timer
	resume layer // the layer a buffer wait returns to (stall)
}

// reset starts the clock at now() in the program layer, nothing charged.
func (c *clock) reset(now func() time.Time) {
	c.now, c.start, c.cur, c.spent = now, now(), layerProgram, [numLayers]time.Duration{}
	c.last = c.start
}

// enter switches to layer l and returns the layer left, so that
// `defer c.enter(c.enter(l))` charges the rest of a function to l.
func (c *clock) enter(l layer) layer {
	t := c.now()
	d, prev := t.Sub(c.last), c.cur
	c.spent[prev] += d
	c.timers[prev].Observe(d)
	c.last, c.cur = t, l
	return prev
}

// stall is the sanitizer's buffer-wait hook (sanitizer.Probes.Wait).
func (c *clock) stall(blocked bool) {
	if blocked {
		c.resume = c.enter(layerBufferWait)
	} else {
		c.enter(c.resume)
	}
}
