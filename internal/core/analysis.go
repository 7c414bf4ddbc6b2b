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
// to the analysis goroutine.
type Batch struct {
	// Recs is the flushed access-record buffer. Ownership passes with the
	// batch; the engine recycles it to the sanitizer pool once every
	// stage has analyzed the batch, so a stage must never retain the
	// batch or its record slice.
	Recs []gpu.Access

	// IDs holds, per record, the ID of the data object containing the
	// record's address, or -1 when no live allocation maps it. The engine
	// resolves IDs once per batch so every stage shares one lookup pass.
	IDs []int

	// rangeOff/rangeBytes hold flush-time captures of the bytes behind
	// compacted load-range records (Count>1 loads), packed into one
	// reusable buffer instead of one heap slice per record: rangeOff[i]
	// is record i's offset into rangeBytes (its length is the record's
	// Bytes()), or -1 when record i has no capture; rangeOff stays empty
	// while the batch holds no load range. Populated only when a
	// participating stage reports NeedsValues; read through RangeVal.
	// Batches are recycled, so both keep their allocations across
	// flushes.
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

// Analysis is one pluggable stage of the analysis engine. The engine owns
// collection (API interception, sanitizer buffers, the analysis
// goroutine) and drives each registered stage through a fixed lifecycle:
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
	// returned by LaunchBegin, with every batch analyzed, or nil when the
	// launch was filtered or sampled out (a stage may still record the
	// launch's presence).
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
// For every batch the engine calls Analyze, in flush order, on the
// kernel-execution goroutine, while the kernel is stopped at the flush:
// Analyze may read the batch, allocation metadata and device memory. (The
// built-in batch-only stages run on the analysis goroutine instead; see
// batchOnly.) A stage sees each launch's accesses once, in order, so
// order-sensitive analyses need no merging.
type LaunchAnalysis interface {
	Analyze(b *Batch)
}

// batchOnly marks the built-in stages whose per-launch work reads only the
// batch (fine, reuse distance). Their Analyze and LaunchEnd run on
// the profiler's analysis goroutine, in the same order as on the kernel
// goroutine, overlapping the program's next APIs; APIBegin, APIEnd and
// Finish stay on the calling goroutine, and the engine never calls
// LaunchEnd for a launch they did not observe.
type batchOnly interface {
	batchOnly()
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
