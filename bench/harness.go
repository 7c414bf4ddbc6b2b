package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/workloads"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	apps  []string // applications, by workloads.ByName name
	scale int      // problem-size divisor (workloads.Scale)
	// setup prepares one measurement: reference runs checked against the
	// pinned digests, the corpus check, a daemon and its warm-up. The
	// harness times it and repeats it.
	setup func(b *bench) error
	// step is one measured iteration; it must record at least one "op"
	// span so the run ends.
	step func(b *bench, iter int)
	// serveInSweep adds a daemon session to the traced sweep; the daemon
	// workload's own load already serves its applications.
	serveInSweep bool
	// nativeReps is how many native runs one native sample times back to
	// back, so that it lasts tens of milliseconds like the op it is
	// compared with: a run of a few milliseconds samples the machine's
	// speed at one instant, and on a shared machine that speed changes
	// between cores and from one millisecond to the next.
	nativeReps int
}

// rodinia is the daemon's application mix: six Rodinia apps whose
// sessions range from a few ms to ~50 ms at scale 16.
var rodinia = []string{
	"Rodinia/hotspot", "Rodinia/bfs", "Rodinia/backprop",
	"Rodinia/pathfinder", "Rodinia/sradv1", "Rodinia/lavaMD",
}

// allWorkloads run in this order; the daemon runs last so the heap it
// retains cannot slow the others.
var allWorkloads = []*workload{
	{
		name:  "darknet",
		why:   "Darknet s32 live: capture plus detectors are most of the profiled run on highly redundant values, so fine-path and detector changes show here",
		apps:  []string{"Darknet"},
		scale: 32, setup: liveSetup, step: liveStep, serveInSweep: true, nativeReps: 4,
	},
	{
		name:  "lammps",
		why:   "LAMMPS s8 live: coarse snapshot upkeep is most of the added time with few access records, so coarse and copy changes show and fine-path ones should not",
		apps:  []string{"LAMMPS"},
		scale: 8, setup: liveSetup, step: liveStep, serveInSweep: true, nativeReps: 4,
	},
	{
		name:  "replay",
		why:   "Resnet50 s32 recorded to VXTR and replayed at workers 1/depth 2: the pipelined engine path, no GPU simulation, low-redundancy FP32 values",
		apps:  []string{"PyTorch-Resnet50"},
		scale: 32, setup: replaySetup, step: replayStep, serveInSweep: true, nativeReps: 12,
	},
	{
		name:  "daemon",
		why:   "vxprofd over loopback HTTP, 2 closed-loop clients, 6 Rodinia apps at s16 in seed-shuffled balanced blocks: admission, store, HTTP and retained heap",
		apps:  rodinia,
		scale: 16, setup: daemonSetup, step: daemonStep, nativeReps: 12,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have darknet, lammps, replay, daemon)", name)
}

// params size a run. The command always uses production(); tests shrink
// the problem size and the run length.
type params struct {
	seconds   time.Duration // measured run length
	minOps    int           // ops a run completes at least, so op_ms_p90 has 10 samples beyond it
	setups    int           // set-ups before measuring; setup_s is their median
	corpusDir string        // capsule corpus the replay set-up verifies
	workDir   string        // where daemon stores live
	scale     int           // when > 0, replaces every workload's problem size
	calibrate int           // calibration loop updates; calUpdates but in tests
}

func production(seconds int, workDir string) params {
	return params{
		seconds: time.Duration(seconds) * time.Second, minOps: 100, setups: 7,
		corpusDir: "testdata/corpus", workDir: workDir, calibrate: calUpdates,
	}
}

// app is one application of a workload with its engine configuration
// and the digest its report must have.
type app struct {
	name   string
	scale  int
	w      workloads.Workload
	cfg    core.Config
	digest string
}

// bench is the state of one run of one workload.
type bench struct {
	p      params
	w      *workload
	apps   []*app
	rng    *rand.Rand // driving goroutine only
	traced bool
	sp     *spans
	scale  int

	mu        sync.Mutex
	attempted int
	failed    int
	posted    int // session POSTs
	queued    int // POSTs answered 202 (queued)

	calMap         map[uint64]uint64 // the calibration loop's table
	heapMB         []float64
	heapPerSession []float64
	roundOverheads []float64 // the daemon's overhead_x, one per round

	rig  *rig // the daemon workload's current daemon
	rigs int  // daemons opened, for store directory names

	// Work counts from the first full-engine run of each app (traced runs).
	counts        map[string]float64
	counted       map[string]bool
	traceBytes    map[string]float64
	traceAccesses map[string]float64

	gc0, cpu0 float64 // runtime CPU classes at the start of measurement
	gc1, cpu1 float64
}

// cliDefaults are vxprof's and vxprofd's flag defaults: coarse + fine
// analysis, every pattern, no sampling, synchronous analysis.
func cliDefaults(scale int) cliconfig.Options {
	var o cliconfig.Options
	o.Register(flag.NewFlagSet("defaults", flag.ContinueOnError))
	o.Scale = scale
	return o
}

// newApp looks an application up and gives it the CLI-default engine.
func newApp(name string, scale int) (*app, error) {
	wl, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	opts := cliDefaults(scale)
	cfg, err := opts.EngineConfig(wl.Name())
	if err != nil {
		return nil, err
	}
	return &app{name: name, scale: scale, w: wl, cfg: cfg}, nil
}

func newBench(p params, w *workload, scale int, seed int64, traced bool, buf *telemetry.Buffer) (*bench, error) {
	pinned, err := parseDigests(pinnedDigests)
	if err != nil {
		return nil, err
	}
	b := &bench{
		p: p, w: w, rng: rand.New(rand.NewSource(seed)), traced: traced, scale: scale,
		sp:     newSpans(w.name, buf),
		calMap: make(map[uint64]uint64, calKeys),
		counts: map[string]float64{}, counted: map[string]bool{},
		traceBytes: map[string]float64{}, traceAccesses: map[string]float64{},
	}
	for _, name := range w.apps {
		a, err := newApp(name, scale)
		if err != nil {
			return nil, err
		}
		a.digest = pinned[digestKey(name, scale)]
		if a.digest == "" {
			// A size with no pinned digest (the tests' tiny sizes) is
			// checked against a reference run of the same build.
			raw, err := oneShot(a)
			if err != nil {
				return nil, err
			}
			if a.digest, err = reportDigest(raw); err != nil {
				return nil, err
			}
		}
		b.apps = append(b.apps, a)
	}
	return b, nil
}

// run measures workload w once: p.setups timed set-ups, then steps until
// p.seconds have passed and, untraced, p.minOps ops have completed. A
// traced run adds the layer sweep to every step.
func run(p params, w *workload, seed int64, traced bool, buf *telemetry.Buffer) (*outcome, error) {
	scale := w.scale
	if p.scale > 0 {
		scale = p.scale
	}
	prevScale := workloads.Scale
	workloads.Scale = scale
	defer func() { workloads.Scale = prevScale }()

	b, err := newBench(p, w, scale, seed, traced, buf)
	if err != nil {
		return nil, err
	}
	defer b.closeRig(b.rig)
	for i := 0; i < p.setups; i++ {
		b.closeRig(b.rig)
		b.timedSetup()
	}

	b.startMeasuring()
	start := time.Now()
	deadline := start.Add(p.seconds)
	// The floor on ops may stretch a run on a slow machine, but never
	// past the hard stop.
	hardStop := start.Add(3*p.seconds + time.Minute)
	for iter := 0; ; iter++ {
		w.step(b, iter)
		if traced {
			b.sweep(iter)
		}
		now := time.Now()
		if now.After(hardStop) || now.After(deadline) && (traced || b.ops() >= p.minOps) {
			break
		}
	}
	b.closeRig(b.rig)
	b.stopMeasuring()
	return b.outcome()
}

// prepare precedes every timed call: a collection, so the call starts
// from the same heap state whatever ran before it and never runs beside
// the collector marking its predecessor's garbage, then a calibration.
func (b *bench) prepare() {
	runtime.GC()
	b.recalibrate()
}

// recalibrate measures the machine's current speed: the "after" of the
// spans ended since the previous calibration, the "before" of the spans
// that begin from now on.
func (b *bench) recalibrate() {
	b.sp.setCal(calibrate(b.calMap, b.p.calibrate))
}

// timedSetup runs one set-up and records its duration.
func (b *bench) timedSetup() {
	b.prepare()
	sp := b.sp.beginScope(-1, "setup")
	err := b.w.setup(b)
	b.sp.end(sp)
	b.done("set-up", err)
}

// done counts one checked operation and its failure, if any; the first
// failure of a run is printed to stderr. It reports whether err is nil.
func (b *bench) done(what string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed == 1 {
			fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", b.w.name, what, err)
		}
	}
	return err == nil
}

func (b *bench) ops() int { return len(b.sp.all("op")) }

// shuffled returns the workload's apps in a seed-chosen order.
func (b *bench) shuffled() []*app {
	out := append([]*app(nil), b.apps...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// heapNow forces a collection and returns the live heap, in MB: the
// bytes of the objects that survived it, which unlike the pages in use
// do not depend on how earlier allocations fragmented the heap. It
// collects twice: a sync.Pool keeps its contents through one collection,
// so a single one would count a profiler's pooled batches or not
// depending on whether a collection ran since the profile finished.
func (b *bench) heapNow() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuClasses reads the runtime's GC and total CPU-time estimates. They
// are snapshots taken at the end of each collection, so callers read
// them right after one.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (b *bench) startMeasuring() {
	runtime.GC()
	b.gc0, b.cpu0 = cpuClasses()
}

func (b *bench) stopMeasuring() {
	runtime.GC()
	b.gc1, b.cpu1 = cpuClasses()
	b.recalibrate() // the "after" of the last spans
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value
}

// val is a metric before its unit is looked up in the definitions.
func val(v float64, n int) metric { return metric{Value: v, N: n} }

// outcome is what one run prints last: the contract's JSON object.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome computes the run's metrics — end-to-end from an untraced run,
// per-layer from a traced one — and gives each the unit its definition
// declares. A metric with no finite value fails the run.
func (b *bench) outcome() (*outcome, error) {
	var m map[string]metric
	var err error
	if b.traced {
		m = b.layerMetrics()
	} else {
		m, err = b.endToEndMetrics()
	}
	if err != nil {
		return nil, err
	}
	defs := defsFor(b.traced)
	if len(m) != len(defs) {
		return nil, fmt.Errorf("%s: computed %d metrics, defined %d", b.w.name, len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (n=%d)", b.w.name, d.name, v.N)
		}
		v.Unit = d.unit
		m[d.name] = v
	}
	return &outcome{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// endToEndMetrics are what a user of the profiler sees, from the
// untraced run.
func (b *bench) endToEndMetrics() (map[string]metric, error) {
	ops := b.sp.all("op")
	p90, err := percentile(normalized(ops), 0.9)
	if err != nil {
		return nil, fmt.Errorf("%s: op_ms_p90: %w", b.w.name, err)
	}
	// The daemon's sessions queue behind each other, so its overhead is
	// that of whole rounds (see daemonStep).
	overheadX := p50(b.roundOverheads)
	if len(b.roundOverheads) == 0 {
		overheadX = overhead(ops, b.sp.all("cuda.run"))
	}
	// Ops over the time the ops took, at the reference speed. The daemon's
	// sessions overlap, so its time is that of the blocks serving them.
	windows := b.sp.get("block", "")
	if len(windows) == 0 {
		windows = ops
	}
	var busyMS float64
	for _, w := range windows {
		busyMS += w.norm()
	}
	setups := b.sp.get("setup", "")
	n := len(ops)
	return map[string]metric{
		"overhead_x": val(overheadX, n),
		"op_ms_p50":  val(typical(ops), n),
		"op_ms_p90":  val(p90, n),
		"ops_per_s":  val(float64(n)*1000/busyMS, len(windows)),
		"heap_mb":    val(p50(b.heapMB), len(b.heapMB)),
		"setup_s":    val(typical(setups)/1000, len(setups)),
	}, nil
}

// layerMetrics come from the traced run. An ablation layer is the
// difference of two per-application medians — a configuration with the
// layer less one without it — averaged over the workload's apps, so the
// layers are not an exclusive partition of the op's time.
func (b *bench) layerMetrics() map[string]metric {
	n := len(b.apps)
	// total sums f over the apps; med reduces one op's spans on that app
	// to their typical time. It also returns the fewest samples any of
	// those medians rests on.
	total := func(f func(med func(op string) float64) float64) (float64, int) {
		var s float64
		least := math.MaxInt
		for _, a := range b.apps {
			s += f(func(op string) float64 {
				xs := b.sp.get(op, a.name)
				least = min(least, len(xs))
				return typical(xs)
			})
		}
		return s, least
	}
	perApp := func(f func(med func(op string) float64) float64) metric {
		s, least := total(f)
		return val(s/float64(n), least)
	}
	diff := func(with, without string) metric {
		return perApp(func(med func(string) float64) float64 { return med(with) - med(without) })
	}
	pooled := func(op string) metric {
		xs := b.sp.all(op)
		return val(typical(xs), len(xs))
	}
	var traceBytes, traceAccesses float64
	for _, a := range b.apps {
		traceBytes += b.traceBytes[a.name]
		traceAccesses += b.traceAccesses[a.name]
	}
	detect := diff("ablate.fine", "ablate.fine_nopat")
	decode := perApp(func(med func(string) float64) float64 { return med("trace.scan") })
	count := func(name string) metric { return val(b.counts[name], n) }
	b.mu.Lock()
	queuedFrac := val(float64(b.queued)/float64(b.posted), b.posted)
	b.mu.Unlock()

	return map[string]metric{
		"traced.op_ms_p50":            pooled("op"),
		"cuda.native_ms_p50":          perApp(func(med func(string) float64) float64 { return med("cuda.run") }),
		"core.collect_ms_p50":         diff("ablate.fine_nopat", "cuda.run"),
		"vpattern.detect_ms_p50":      detect,
		"vpattern.ns_per_record":      val(detect.Value*float64(n)*1e6/b.counts["sanitizer.records"], detect.N),
		"core.coarse_ms_p50":          diff("ablate.coarse", "cuda.run"),
		"profile.report_ms_p50":       perApp(func(med func(string) float64) float64 { return med("profile.report") }),
		"trace.record_ms_p50":         diff("trace.record", "cuda.run"),
		"trace.decode_ms_p50":         decode,
		"trace.decode_mb_per_s":       val(traceBytes/1e6/(decode.Value*float64(n)/1e3), decode.N),
		"trace.bytes_per_access":      val(traceBytes/traceAccesses, n),
		"core.replay_analysis_ms_p50": diff("ablate.replay", "trace.scan"),
		"daemon.attach_ms_p50":        pooled("daemon.attach"),
		"daemon.wait_ms_p50":          pooled("daemon.wait"),
		"daemon.get_ms_p50":           pooled("daemon.get"),
		"daemon.aggregate_ms_p50":     pooled("daemon.aggregate"),
		"daemon.queued_frac":          queuedFrac,
		"daemon.heap_mb_per_session":  val(p50(b.heapPerSession), len(b.heapPerSession)),
		"runtime.gc_cpu_frac":         val((b.gc1-b.gc0)/(b.cpu1-b.cpu0), 1),
		"sanitizer.records":           count("sanitizer.records"),
		"sanitizer.flushes":           count("sanitizer.flushes"),
		"core.stage_batches":          count("core.stage_batches"),
		"snapshot.copy_bytes":         count("snapshot.copy_bytes"),
		"merge.input_intervals":       count("merge.input_intervals"),
		"merge.output_intervals":      count("merge.output_intervals"),
	}
}
