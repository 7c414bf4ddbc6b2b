package core

import (
	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/vflow"
	"valueexpert/internal/vpattern"
)

// Batch is one flushed sanitizer buffer plus everything that must be
// captured synchronously at flush time: device memory keeps mutating while
// the kernel runs, so values behind compacted load-range records are
// snapshotted on the kernel-execution goroutine before the batch travels
// to a worker.
type Batch struct {
	// Recs is the flushed access-record buffer. Ownership passes with the
	// batch; the engine recycles it to the sanitizer pool as soon as
	// every stage has compacted the batch — a Partial must therefore be
	// self-contained and never retain the batch or its record slice.
	Recs []gpu.Access

	// IDs holds, per record, the ID of the data object containing the
	// record's address, or -1 when no live allocation maps it. The engine
	// resolves IDs once per batch so every stage shares one lookup pass.
	IDs []int

	// Yield marks batches compacted on background workers: stages should
	// give up the processor periodically (yieldStride records) so that,
	// when GOMAXPROCS is no larger than the worker count, the
	// kernel-execution goroutine's timers and buffer hand-offs stay
	// prompt — background analysis must never stall collection.
	Yield bool

	// rangeOff/rangeBytes hold flush-time captures of the bytes behind
	// compacted load-range records (Count>1 loads), packed into one
	// reusable buffer instead of one heap slice per record: rangeOff[i]
	// is record i's offset into rangeBytes (its length is the record's
	// Bytes()), or -1 when record i has no capture; rangeOff stays empty
	// while no record has one. Populated only when a participating stage
	// reports NeedsValues; read through RangeVal.
	// Batches recycle through a pool, so both keep their allocations
	// across flushes.
	rangeOff   []int32
	rangeBytes []byte
}

// RangeVal returns the bytes record i's range held at flush time, or nil
// when the record is not a captured load range. The slice aliases the
// batch's capture buffer; it is valid until the batch is recycled.
func (b *Batch) RangeVal(i int) []byte {
	if i >= len(b.rangeOff) || b.rangeOff[i] < 0 {
		return nil
	}
	off := int(b.rangeOff[i])
	return b.rangeBytes[off : off+int(b.Recs[i].Bytes())]
}

// yieldStride is how often Yield-marked work gives up the processor: a
// runtime.Gosched every record measurably throttles the analysis on
// small GOMAXPROCS, while every 1024 records still bounds scheduling
// latency to microseconds.
const yieldStride = 1024

// Partial is one stage's compacted, order-independent result for one
// batch, ready for in-order absorption into the stage's launch state.
type Partial interface{}

// Analysis is one pluggable stage of the analysis engine. The engine owns
// collection (API interception, sanitizer buffers, the batch pipeline)
// and drives each registered stage through a fixed lifecycle:
//
//	APIBegin/APIEnd      every non-launch API event, in stream order
//	LaunchBegin          once per instrumented launch → a LaunchAnalysis
//	LaunchEnd            once per launch event (instrumented or not)
//	Finish               once, contributing results to the report
//
// Stages are registered in a fixed order and every lifecycle call is made
// in that order, so a stage set behaves deterministically. New analyses
// (advisor flows, heatmaps, …) plug in through Config.Analyses without
// touching the engine.
type Analysis interface {
	// Name identifies the stage in diagnostics.
	Name() string

	// NeedsAccesses reports whether the stage consumes instrumented
	// per-access records. Instrumentation is enabled only when at least
	// one registered stage returns true.
	NeedsAccesses() bool

	// NeedsValues reports whether compacted load-range records must have
	// their element values captured at flush time (Batch.RangeVal).
	NeedsValues() bool

	// LaunchBegin returns the stage's accumulator for an upcoming
	// instrumented launch of the named kernel, or nil when the stage has
	// no per-launch work.
	LaunchBegin(kernel string) LaunchAnalysis

	// LaunchEnd finalizes a completed launch. la is the accumulator
	// returned by LaunchBegin — fully absorbed, exclusively owned by the
	// calling goroutine — or nil when the launch was filtered or sampled
	// out (a stage may still record the launch's presence).
	LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis)

	// APIBegin observes a non-launch API event before its device effect
	// (frees are still addressable here).
	APIBegin(ev *cuda.APIEvent)

	// APIEnd observes a completed non-launch API event.
	APIEnd(ev *cuda.APIEvent)

	// Finish contributes the stage's accumulated findings to the report.
	Finish(rep *profile.Report)
}

// LaunchAnalysis accumulates one instrumented launch for one stage.
//
// Compact turns one batch into an independent Partial. Calls may run
// concurrently with each other on pipeline workers, so Compact must not
// mutate the accumulator — it may only read immutable configuration, the
// batch, and allocation metadata (stable while a kernel executes).
//
// Absorb folds one Partial into the accumulator. The engine serializes
// Absorb calls in flush order, which is what lets order-sensitive
// analyses (value first-occurrence, reuse distance) stay byte-identical
// to fully synchronous analysis.
type LaunchAnalysis interface {
	Compact(b *Batch) Partial
	Absorb(pt Partial)
}

// inlineAnalysis is the optional LaunchAnalysis extension the zero-worker
// pipeline uses: analyzeInline folds b straight into the launch state,
// leaving it exactly as Absorb(Compact(b)) would, without building a
// partial. It runs on the kernel-execution goroutine, which owns the
// launch state while no workers exist.
type inlineAnalysis interface {
	analyzeInline(b *Batch)
}

// PartialCombiner is the optional LaunchAnalysis extension for stages
// whose partials can be pre-folded off the collector's critical path.
// Combine folds second — the partial of the batch flushed immediately
// after first's — into first and returns the combined partial;
// Absorb(Combine(first, second)) must leave the accumulator bit-identical
// to Absorb(first); Absorb(second). The engine only combines adjacent
// partials in flush order, never reorders them, and runs Combine on a
// single goroutine, so implementations need no locking. A stage whose
// fold is not exactly associative simply doesn't implement the interface
// and keeps the strictly serial absorb path.
type PartialCombiner interface {
	Combine(first, second Partial) Partial
}

// Env is the engine state handed to an AnalysisFactory: the pieces a
// stage may need to resolve addresses, intern call paths, or share the
// coarse stage's value flow graph.
type Env struct {
	RT    *cuda.Runtime
	Tree  *callpath.Tree
	Graph *vflow.Graph
	Cfg   *Config
	// Patterns is the resolved enabled-pattern set (nil: registry
	// defaults). Stages consult it so a disabled pattern costs no work.
	Patterns vpattern.Set
	// Tel is the run's telemetry recorder, nil when self-observation is
	// off. Recorder methods are nil-safe, so stages create probes
	// unconditionally and get no-ops when telemetry is disabled.
	Tel *telemetry.Recorder
}

// AnalysisFactory builds one stage instance per attached profiler. A
// Session attaches one profiler per device, so factories — not stage
// instances — are what Config carries: each device gets fresh state.
type AnalysisFactory func(env Env) Analysis

// BaseStage provides no-op defaults for the optional Analysis lifecycle
// methods so a custom stage only implements the hooks it uses.
type BaseStage struct{}

func (BaseStage) NeedsValues() bool                        { return false }
func (BaseStage) LaunchBegin(string) LaunchAnalysis        { return nil }
func (BaseStage) LaunchEnd(*cuda.APIEvent, LaunchAnalysis) {}
func (BaseStage) APIBegin(*cuda.APIEvent)                  {}
func (BaseStage) APIEnd(*cuda.APIEvent)                    {}
func (BaseStage) Finish(*profile.Report)                   {}
