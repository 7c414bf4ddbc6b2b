// Package valueexpert is a Go implementation of ValueExpert, the value
// profiling and analysis tool of Zhou, Hao, Mellor-Crummey, Meng, and Liu,
// "ValueExpert: Exploring Value Patterns in GPU-Accelerated Applications"
// (ASPLOS 2022).
//
// ValueExpert monitors a GPU-accelerated program's execution, captures the
// values produced and used by every memory load and store in GPU kernels,
// recognizes eight value patterns (redundant, duplicate, frequent, single
// value, single zero, heavy type, structured, and approximate values), and
// builds a program-wide value flow graph that pinpoints value-related
// inefficiencies across GPU API invocations.
//
// Because this repository targets environments without NVIDIA hardware,
// programs run on the simulated CUDA-like runtime of package cuda (see
// DESIGN.md for the substitution argument). The profiler attaches to a
// runtime and observes every GPU API:
//
//	rt := cuda.NewRuntime(gpu.RTX2080Ti)
//	p := valueexpert.Attach(rt, valueexpert.Config{Coarse: true, Fine: true})
//	// ... run the GPU program against rt ...
//	report := p.Report()
//	fmt.Print(report.Text())
//	os.WriteFile("flow.dot", []byte(p.Graph().DOT(valueexpert.DOTOptions{})), 0o644)
package valueexpert

import (
	"io"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/advisor"
	"valueexpert/internal/core"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/gui"
	"valueexpert/internal/interval"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/trace"
	"valueexpert/internal/vflow"
	"valueexpert/internal/vpattern"
)

// Config selects ValueExpert's analyses; see core.Config for field docs.
type Config = core.Config

// ConfigError is the typed validation error Config.Validate returns:
// Field names the offending Config field so front-ends can map it back
// to their own option names.
type ConfigError = core.ConfigError

// Profiler is an attached ValueExpert instance.
type Profiler = core.Profiler

// Attach installs ValueExpert on a runtime. Detach with Profiler.Detach.
// Attach panics on a configuration that fails Config.Validate; use
// Profile or NewSession for the error-returning path.
func Attach(rt *cuda.Runtime, cfg Config) *Profiler { return core.Attach(rt, cfg) }

// EventSource is a producer of a GPU API event stream — live execution
// (NewLiveSource) or trace replay (trace.NewSource) — that profilers
// consume identically.
type EventSource = cuda.EventSource

// NewLiveSource adapts a live program issuing GPU work against rt to the
// EventSource interface.
func NewLiveSource(rt *cuda.Runtime, run func(rt *cuda.Runtime) error) EventSource {
	return cuda.NewLiveSource(rt, run)
}

// Profile attaches a profiler to src's runtime and runs the source's
// event stream through it. The profiler is returned even on error,
// holding whatever the stream produced before failing.
func Profile(src EventSource, cfg Config) (*Profiler, error) {
	return core.Profile(src, cfg)
}

// Analysis is one pluggable stage of the analysis engine; register custom
// stages through Config.Analyses. BaseStage supplies no-op defaults for
// the optional lifecycle methods.
type (
	Analysis        = core.Analysis
	AnalysisFactory = core.AnalysisFactory
	AnalysisEnv     = core.Env
	LaunchAnalysis  = core.LaunchAnalysis
	Batch           = core.Batch
	BaseStage       = core.BaseStage
)

// Report is the annotated profile produced by Profiler.Report.
type Report = profile.Report

// OverheadStats is the profiler's own cost breakdown (wall time as
// exclusive layers, analysis goroutine busy time, snapshot cost) from
// Profiler.Overhead, attachable to a report's optional Overhead section.
type OverheadStats = profile.Overhead

// ReadReport deserializes a profile written with Report.WriteJSON.
var ReadReport = profile.ReadJSON

// Self-observability: the profiler profiling itself. A Telemetry
// recorder threaded through Config.Telemetry collects per-stage metrics
// (Metrics/WriteMetrics); attach a TraceSink (NewTraceBuffer) to it with
// AttachTrace for a Chrome trace-event self-trace showing kernel
// execution overlapped with the analysis goroutine. Enabling telemetry
// never changes the emitted report.
type (
	// Telemetry is a per-run metrics registry and trace-span source.
	Telemetry = telemetry.Recorder
	// Metrics is the structured metrics snapshot Telemetry exports.
	Metrics = telemetry.Metrics
	// TraceSink consumes self-trace events.
	TraceSink = telemetry.TraceSink
	// TraceEvent is one Chrome trace event.
	TraceEvent = telemetry.Event
	// TraceBuffer is an in-memory TraceSink serializing to Chrome
	// trace-event JSON (Perfetto-loadable).
	TraceBuffer = telemetry.Buffer
)

// NewTelemetry creates an empty telemetry recorder for Config.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTraceBuffer creates an in-memory trace sink; attach it with
// Telemetry.AttachTrace and serialize with TraceBuffer.WriteJSON.
func NewTraceBuffer() *TraceBuffer { return telemetry.NewBuffer() }

// Trace record/replay: capture one instrumented run's API+access stream
// and re-analyze it offline with different settings through Profile —
// no longer a vxprof-only facility.
type (
	// TraceRecorder captures a runtime's event stream (see Record).
	TraceRecorder = trace.Recorder
	// TraceSource replays a recorded trace as an EventSource.
	TraceSource = trace.Source
)

// Recording is an in-progress trace capture started by Record. The
// stream is serialized as the program runs (recording memory stays
// bounded regardless of run length); Close it after the program ran to
// detach the recorder and finalize the container.
type Recording struct {
	rec *trace.Recorder
}

// Events reports the number of events captured so far.
func (r *Recording) Events() int { return r.rec.Events() }

// Close detaches the recorder from its runtime and finalizes the trace
// container, returning the first serialization error if any write
// failed mid-run.
func (r *Recording) Close() error { return r.rec.Close() }

// Record attaches a streaming trace recorder to rt that serializes the
// VXTR container to w as the program runs: run the program against rt,
// then Close the recording.
//
//	rec := valueexpert.Record(rt, f)
//	// ... run the GPU program against rt ...
//	if err := rec.Close(); err != nil { ... }
func Record(rt *cuda.Runtime, w io.Writer) *Recording {
	return &Recording{rec: trace.Record(rt, w, trace.FormatBinary)}
}

// NewTraceSource replays a trace previously serialized by a Recording
// into a fresh runtime simulating device; feed it to Profile like any
// live source.
func NewTraceSource(r io.Reader, device gpu.Profile) *TraceSource {
	return trace.NewSource(r, device)
}

// Deterministic fault injection: a FaultPlan armed on a runtime
// (Runtime.ArmFaults, before Attach) makes selected API calls, kernel
// launches, and sanitizer buffer deliveries fail on demand, so the
// engine's degradation paths can be exercised reproducibly. Partial runs
// surface as typed *cuda.Error values and a report's Degraded section.
type (
	// FaultPlan schedules which operations fail; see faultinject.Plan.
	FaultPlan = faultinject.Plan
	// FaultPoint is one injectable failure site (FaultMalloc …).
	FaultPoint = faultinject.Point
	// FaultInjection describes one fired fault (Plan.Fired).
	FaultInjection = faultinject.Injection
)

// The injectable fault points.
const (
	FaultMalloc        = faultinject.Malloc
	FaultMemcpy        = faultinject.Memcpy
	FaultMemset        = faultinject.Memset
	FaultLaunch        = faultinject.Launch
	FaultFlushDrop     = faultinject.FlushDrop
	FaultFlushTruncate = faultinject.FlushTruncate
	FaultFlushDelay    = faultinject.FlushDelay
)

// NewFaultPlan creates an empty plan; schedule failures with FailNth and
// FailLaunchNth.
func NewFaultPlan() *FaultPlan { return faultinject.New() }

// SeededFaultPlan creates a plan whose fault points fire pseudo-randomly
// from seed; tune the rate with WithProbability.
func SeededFaultPlan(seed int64) *FaultPlan { return faultinject.Seeded(seed) }

// ParseFaultSpec parses a textual plan like "seed=7,prob=0.05" or
// "malloc@1,launch@2+16" — the vxprof -faults grammar.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return faultinject.ParseSpec(spec) }

// DegradedStats is a report's optional Degraded section: present exactly
// when collection was incomplete (failed APIs, skipped launches, lost
// sanitizer deliveries), marking the findings as a lower bound.
type DegradedStats = profile.Degraded

// FineConfig tunes fine-grained pattern thresholds (𝒯, 𝒦, …).
type FineConfig = vpattern.FineConfig

// PatternKind enumerates the value patterns: the paper's eight builtins
// plus any out-of-tree kinds allocated through RegisterPattern.
type PatternKind = vpattern.Kind

// The eight value patterns.
const (
	RedundantValues   = vpattern.RedundantValues
	DuplicateValues   = vpattern.DuplicateValues
	FrequentValues    = vpattern.FrequentValues
	SingleValue       = vpattern.SingleValue
	SingleZero        = vpattern.SingleZero
	HeavyType         = vpattern.HeavyType
	StructuredValues  = vpattern.StructuredValues
	ApproximateValues = vpattern.ApproximateValues
	NumPatternKinds   = vpattern.NumKinds
)

// The pattern registry: pattern detection is a pluggable seam. A
// PatternRegistration ties together everything one pattern kind needs —
// name, grain, detector factory, advisor advice — and registering it is
// all it takes for the engine, report, advisor, and GUI to carry the new
// pattern; Config.Patterns (or vxprof -patterns) then enables it by name.
type (
	// PatternRegistration describes one value-pattern kind; see
	// vpattern.Registration for field docs.
	PatternRegistration = vpattern.Registration
	// PatternDetector recognizes one fine-grained pattern at Finalize
	// from the shared per-object observation.
	PatternDetector = vpattern.Detector
	// PatternObserver is a PatternDetector that also keeps per-access
	// state of its own (Observe); only observers are called on the
	// per-access path.
	PatternObserver = vpattern.Observer
	// PatternMatch is one detected pattern instance on a data object.
	PatternMatch = vpattern.Match
	// PatternGrain classifies a pattern as coarse (snapshot-based) or
	// fine (access-stream-based).
	PatternGrain = vpattern.Grain
	// ObjectObservation is the shared per-object observation context
	// (access counters + exact-value histogram) handed to detectors.
	ObjectObservation = vpattern.ObjectShared
	// PatternAdvice derives the advisor suggestion for one fine match.
	PatternAdvice = vpattern.FineAdvice
)

const (
	// CoarseGrain marks snapshot-based patterns.
	CoarseGrain = vpattern.GrainCoarse
	// FineGrain marks access-stream-based patterns.
	FineGrain = vpattern.GrainFine
	// AutoPatternKind asks RegisterPattern to allocate the next free kind.
	AutoPatternKind = vpattern.KindAuto
)

// RegisterPattern adds a pattern kind to the global registry and returns
// its (possibly allocated) kind. Call from package init; the kind's name
// becomes selectable via Config.Patterns and vxprof -patterns.
func RegisterPattern(r PatternRegistration) PatternKind { return vpattern.Register(r) }

// PatternNames returns every registered pattern name in registration
// order.
func PatternNames() []string { return vpattern.Names() }

// DefaultPatternNames returns the names of the patterns enabled when
// Config.Patterns is unset.
func DefaultPatternNames() []string { return vpattern.DefaultNames() }

// ParsePatternSet validates a Config.Patterns-style name list against the
// registry; unknown names are rejected with the valid set listed.
func ParsePatternSet(names []string) (vpattern.Set, error) { return vpattern.ParseSet(names) }

// RegisterSuggestionRule installs a report-level advisor rule for pattern
// kind k — the hook coarse-style patterns use for suggestions that span
// records (per-match advice for fine patterns instead rides the
// registration's PatternAdvice).
func RegisterSuggestionRule(k PatternKind, rule func(rep *Report) []Suggestion) {
	advisor.RegisterRule(k, rule)
}

// RegisterReportSection installs an extra HTML report section rendered
// after the built-in tables — the hook out-of-tree detectors use to give
// their findings a dedicated view. render returns an HTML fragment; ""
// omits the section for that report.
func RegisterReportSection(name string, render func(rep *Report) string) {
	gui.RegisterSection(name, render)
}

// Graph is the value flow graph (Definition 5.1) with vertex slicing
// (Definition 5.2), important-graph pruning (Definition 5.3), and DOT
// rendering.
type Graph = vflow.Graph

// DOTOptions controls Graph.DOT rendering.
type DOTOptions = vflow.DOTOptions

// Importance carries the user-defined metrics I(v), I(e) of Definition 5.3.
type Importance = vflow.Importance

// Interval is a half-open byte range of accessed device memory.
type Interval = interval.Interval

// CopyStrategy selects how snapshots are refreshed (Figure 5).
type CopyStrategy = interval.CopyStrategy

// Snapshot copy strategies.
const (
	DirectCopy   = interval.DirectCopy
	MinMaxCopy   = interval.MinMaxCopy
	SegmentCopy  = interval.SegmentCopy
	AdaptiveCopy = interval.AdaptiveCopy
)

// MergeIntervals merges overlapping and adjacent intervals using the
// paper's data-parallel algorithm (Figure 4) on a pool of workers
// (workers <= 0 selects one per CPU). The input is not modified.
func MergeIntervals(ivs []Interval, workers int) []Interval {
	return interval.NewMerger(workers).MergeParallel(ivs)
}

// MergeIntervalsSequential is the O(N log N) baseline merge the paper
// compares against.
func MergeIntervalsSequential(ivs []Interval) []Interval {
	return interval.MergeSequential(ivs)
}

// Session profiles a multi-GPU program: one runtime and profiler per
// device plus cross-device duplicate analysis (replicated tensors).
type Session = core.Session

// ObjectRef names a data object on one of a session's devices.
type ObjectRef = core.ObjectRef

// NewSession creates one runtime+profiler per device profile. An invalid
// configuration returns its validation error (see Config.Validate).
func NewSession(cfg Config, devices ...gpu.Profile) (*Session, error) {
	return core.NewSession(cfg, devices...)
}

// Suggestion is one ranked optimization opportunity derived from the
// profile — the per-pattern playbook of paper §3 applied to the findings.
type Suggestion = advisor.Suggestion

// Suggest derives ranked optimization suggestions from a report and
// (optionally) its value flow graph.
func Suggest(rep *Report, graph *Graph) []Suggestion {
	return advisor.Analyze(rep, graph)
}

// RenderSuggestions formats the top max suggestions (0 = all).
func RenderSuggestions(sugs []Suggestion, max int) string {
	return advisor.Render(sugs, max)
}

// HTMLOptions controls RenderHTML.
type HTMLOptions = gui.Options

// RenderHTML produces a self-contained HTML report — the GUI view of the
// paper's Figure 2: the value flow graph as hover-annotated SVG plus the
// pattern tables. graph may be nil to omit the graph section.
func RenderHTML(rep *Report, graph *Graph, opts HTMLOptions) string {
	return gui.RenderHTML(rep, graph, opts)
}

// PlanCopy computes the device-to-host byte ranges a snapshot refresh
// would transfer for a data object spanning object, given its merged
// accessed intervals, under the chosen strategy (Figure 5).
func PlanCopy(strategy CopyStrategy, object Interval, merged []Interval) []Interval {
	return interval.PlanCopy(strategy, object, merged)
}
