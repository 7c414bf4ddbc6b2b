// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): the value-pattern matrix (Table 1), the kernel/memory
// speedups (Table 3), the per-pattern speedups (Table 4), the tool
// comparison (Table 5), the Darknet value flow graph (Figure 2), and the
// profiling overhead study (Figure 6). Each experiment returns structured
// results plus a text rendering that mirrors the paper's rows.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/gvprof"
	"valueexpert/internal/vpattern"
	"valueexpert/internal/workloads"
)

// Options configures experiment runs.
type Options struct {
	// Scale divides workload problem sizes (1 = full scale, as benchmarks
	// use; tests use larger values for speed).
	Scale int
	// Devices lists the platforms to evaluate; defaults to Table 2's
	// RTX 2080 Ti and A100.
	Devices []gpu.Profile
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Devices) == 0 {
		o.Devices = gpu.Profiles()
	}
	return o
}

// ---------------------------------------------------------------------------
// Table 1 — value patterns per application.
// ---------------------------------------------------------------------------

// Table1Row is one application's detected pattern set.
type Table1Row struct {
	App      string
	Expected []vpattern.Kind
	Detected map[string]bool
}

// Table1Result is the full pattern matrix.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 profiles every workload (original variant, coarse+fine, no
// sampling) and reports the detected pattern matrix.
func Table1(opts Options) (*Table1Result, error) {
	opts = opts.withDefaults()
	res := &Table1Result{}
	for _, w := range workloads.All(opts.Scale) {
		rt := cuda.NewRuntime(opts.Devices[0])
		p := core.Attach(rt, core.Config{Coarse: true, Fine: true, Program: w.Name()})
		if err := w.Run(rt, workloads.Original); err != nil {
			return nil, fmt.Errorf("table 1: %s: %w", w.Name(), err)
		}
		res.Rows = append(res.Rows, Table1Row{
			App: w.Name(), Expected: w.ExpectedPatterns(),
			Detected: p.Report().PatternSet(),
		})
	}
	return res, nil
}

// MissingExpected lists (app, pattern) pairs the paper reports but the
// profiler did not detect; empty means full Table 1 agreement.
func (r *Table1Result) MissingExpected() []string {
	var out []string
	for _, row := range r.Rows {
		for _, k := range row.Expected {
			if !row.Detected[k.String()] {
				out = append(out, fmt.Sprintf("%s: %s", row.App, k))
			}
		}
	}
	return out
}

// Render prints the matrix in Table 1's layout.
func (r *Table1Result) Render() string {
	cols := make([]string, vpattern.NumKinds)
	for k := vpattern.Kind(0); k < vpattern.NumKinds; k++ {
		cols[k] = k.String()
	}
	var b strings.Builder
	b.WriteString("Table 1: value patterns detected per application\n")
	fmt.Fprintf(&b, "%-24s", "Application")
	for _, c := range cols {
		fmt.Fprintf(&b, " %-11s", abbrev(c))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s", row.App)
		for _, c := range cols {
			mark := ""
			if row.Detected[c] {
				mark = "+"
			}
			fmt.Fprintf(&b, " %-11s", mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func abbrev(s string) string {
	words := strings.Fields(s)
	if len(words) == 2 {
		return words[0][:min(6, len(words[0]))] + "." + words[1][:min(4, len(words[1]))]
	}
	return s
}

// ---------------------------------------------------------------------------
// Table 3 / Table 4 — optimization speedups.
// ---------------------------------------------------------------------------

// DeviceSpeedup is one (application, device) measurement.
type DeviceSpeedup struct {
	Device string

	KernelTimeOrig time.Duration // hot kernels, original variant
	KernelTimeOpt  time.Duration
	MemoryTimeOrig time.Duration
	MemoryTimeOpt  time.Duration

	// HasKernel is false for memory-only optimizations (streamcluster,
	// QMCPACK, LAMMPS), where the paper reports "-" for kernel speedup.
	HasKernel bool
}

// KernelSpeedup returns orig/opt for the hot kernels.
func (d DeviceSpeedup) KernelSpeedup() float64 {
	if !d.HasKernel || d.KernelTimeOpt <= 0 {
		return 0
	}
	return float64(d.KernelTimeOrig) / float64(d.KernelTimeOpt)
}

// MemorySpeedup returns orig/opt for memory operations.
func (d DeviceSpeedup) MemorySpeedup() float64 {
	if d.MemoryTimeOpt <= 0 {
		return 0
	}
	return float64(d.MemoryTimeOrig) / float64(d.MemoryTimeOpt)
}

// Table3Row is one application's Table 3 line.
type Table3Row struct {
	App      string
	Kernel   string // hot kernel name(s)
	Patterns []vpattern.Kind
	Devices  []DeviceSpeedup
}

// Table3Result holds all rows plus the summary statistics the paper
// reports (geometric mean and median speedups per device).
type Table3Result struct {
	DeviceNames []string
	Rows        []Table3Row
}

// Table3 measures kernel and memory time for the original and optimized
// variants of every workload on every device.
func Table3(opts Options) (*Table3Result, error) {
	opts = opts.withDefaults()
	res := &Table3Result{}
	for _, d := range opts.Devices {
		res.DeviceNames = append(res.DeviceNames, d.Name)
	}
	for _, w := range workloads.All(opts.Scale) {
		row := Table3Row{App: w.Name(), Kernel: strings.Join(w.HotKernels(), "+"),
			Patterns: w.OptimizedPatterns()}
		for _, prof := range opts.Devices {
			ds := DeviceSpeedup{Device: prof.Name, HasKernel: len(w.HotKernels()) > 0}
			for _, variant := range []workloads.Variant{workloads.Original, workloads.Optimized} {
				rt := cuda.NewRuntime(prof)
				tc := cuda.NewTimeCollector()
				rt.SetInterceptor(tc)
				if err := w.Run(rt, variant); err != nil {
					return nil, fmt.Errorf("table 3: %s on %s: %w", w.Name(), prof.Name, err)
				}
				var kt time.Duration
				for _, k := range w.HotKernels() {
					kt += tc.KernelTime(k)
				}
				if variant == workloads.Original {
					ds.KernelTimeOrig, ds.MemoryTimeOrig = kt, tc.MemoryTime()
				} else {
					ds.KernelTimeOpt, ds.MemoryTimeOpt = kt, tc.MemoryTime()
				}
			}
			row.Devices = append(row.Devices, ds)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// GeomeanKernelSpeedup aggregates kernel speedups for device index di
// over rows with kernels (paper bottom row: 1.58× / 1.39×).
func (r *Table3Result) GeomeanKernelSpeedup(di int) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if s := row.Devices[di].KernelSpeedup(); s > 0 {
			vals = append(vals, s)
		}
	}
	return geomean(vals)
}

// GeomeanMemorySpeedup aggregates memory speedups for device index di.
func (r *Table3Result) GeomeanMemorySpeedup(di int) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if s := row.Devices[di].MemorySpeedup(); s > 0 {
			vals = append(vals, s)
		}
	}
	return geomean(vals)
}

// MedianKernelSpeedup is the paper's median row.
func (r *Table3Result) MedianKernelSpeedup(di int) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if s := row.Devices[di].KernelSpeedup(); s > 0 {
			vals = append(vals, s)
		}
	}
	return median(vals)
}

// Row returns the named application's row.
func (r *Table3Result) Row(app string) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.App == app {
			return row, true
		}
	}
	return Table3Row{}, false
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Render prints Table 3's rows: kernel time, kernel speedup, memory time,
// memory speedup per device.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: kernel and memory time speedups (original vs optimized)\n")
	fmt.Fprintf(&b, "%-24s %-28s", "Application", "Kernel")
	for _, d := range r.DeviceNames {
		fmt.Fprintf(&b, " | %s: kernel spdup  memory spdup", d)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %-28s", row.App, row.Kernel)
		for _, ds := range row.Devices {
			if ds.HasKernel {
				fmt.Fprintf(&b, " | %10s %6.2fx", fmtDur(ds.KernelTimeOrig), ds.KernelSpeedup())
			} else {
				fmt.Fprintf(&b, " | %10s %6s", "-", "-")
			}
			fmt.Fprintf(&b, " %10s %6.2fx", fmtDur(ds.MemoryTimeOrig), ds.MemorySpeedup())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-53s", "Geometric Mean")
	for di := range r.DeviceNames {
		fmt.Fprintf(&b, " | %10s %6.2fx %10s %6.2fx", "",
			r.GeomeanKernelSpeedup(di), "", r.GeomeanMemorySpeedup(di))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-53s", "Median")
	for di := range r.DeviceNames {
		fmt.Fprintf(&b, " | %10s %6.2fx %10s %6s", "", r.MedianKernelSpeedup(di), "", "")
	}
	b.WriteByte('\n')
	return b.String()
}

// RenderTable4 prints the same measurements organized by exploited
// pattern, Table 4's layout.
func (r *Table3Result) RenderTable4() string {
	var b strings.Builder
	b.WriteString("Table 4: speedups by exploited value pattern\n")
	fmt.Fprintf(&b, "%-24s %-36s", "Application", "Pattern")
	for _, d := range r.DeviceNames {
		fmt.Fprintf(&b, " | %s kern/mem", d)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		var pats []string
		for _, k := range row.Patterns {
			pats = append(pats, k.String())
		}
		fmt.Fprintf(&b, "%-24s %-36s", row.App, strings.Join(pats, ", "))
		for _, ds := range row.Devices {
			if ds.HasKernel {
				fmt.Fprintf(&b, " | %6.2fx", ds.KernelSpeedup())
			} else {
				fmt.Fprintf(&b, " | %6s", "-")
			}
			fmt.Fprintf(&b, " %6.2fx", ds.MemorySpeedup())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(time.Microsecond))
	}
	return d.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — profiling overhead.
// ---------------------------------------------------------------------------

// OverheadRow is one application's overhead measurement on one device.
type OverheadRow struct {
	App    string
	Device string

	Native time.Duration // wall time, uninstrumented
	Coarse time.Duration // wall time under coarse-grained analysis
	Fine   time.Duration // wall time under fine-grained analysis

	// Transfer is the modelled device-to-host transfer time of the
	// coarse and fine runs together (transferTime).
	Transfer time.Duration
}

// CoarseOverhead is the coarse slowdown factor.
func (o OverheadRow) CoarseOverhead() float64 { return ratio(o.Coarse, o.Native) }

// FineOverhead is the fine slowdown factor.
func (o OverheadRow) FineOverhead() float64 { return ratio(o.Fine, o.Native) }

// TotalOverhead sums both runs' overheads, the multi-run accounting of
// Table 5's footnote.
func (o OverheadRow) TotalOverhead() float64 { return o.CoarseOverhead() + o.FineOverhead() }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Figure6Result is the overhead study.
type Figure6Result struct {
	Rows []OverheadRow
}

// isRealApp mirrors the paper's benchmark/application split: Rodinia
// programs are benchmarks; everything else is an application profiled
// with kernel filtering and a longer sampling period.
func isRealApp(name string) bool { return !strings.HasPrefix(name, "Rodinia/") }

// Figure6 measures native vs coarse vs fine wall time per workload and
// device (overheadRow).
func Figure6(opts Options) (*Figure6Result, error) {
	opts = opts.withDefaults()
	res := &Figure6Result{}
	for _, w := range workloads.All(opts.Scale) {
		for _, prof := range opts.Devices {
			row, err := overheadRow(w, prof)
			if err != nil {
				return nil, fmt.Errorf("figure 6: %w", err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// overheadRow times w natively, under coarse analysis and under fine
// analysis on prof, using the paper's configuration: no sampling for
// coarse analysis; kernel/block sampling of 20 for benchmarks and 100 for
// applications, with hot-kernel filtering for applications.
func overheadRow(w workloads.Workload, prof gpu.Profile) (OverheadRow, error) {
	row := OverheadRow{App: w.Name(), Device: prof.Name}
	fine := core.Config{Fine: true, KernelSamplingPeriod: 20, BlockSamplingPeriod: 20, Program: w.Name()}
	if isRealApp(w.Name()) {
		fine.KernelSamplingPeriod, fine.BlockSamplingPeriod = 100, 100
		if hot := w.HotKernels(); len(hot) > 0 {
			fine.KernelFilter = func(name string) bool { return slices.Contains(hot, name) }
		}
	}
	var err error
	var coarseP, fineP *core.Profiler
	if row.Native, err = timeRun(w, prof, nil); err != nil {
		return row, fmt.Errorf("%s native: %w", w.Name(), err)
	}
	if row.Coarse, err = timeRun(w, prof, profiled(core.Config{Coarse: true, Program: w.Name()}, &coarseP)); err != nil {
		return row, fmt.Errorf("%s coarse: %w", w.Name(), err)
	}
	if row.Fine, err = timeRun(w, prof, profiled(fine, &fineP)); err != nil {
		return row, fmt.Errorf("%s fine: %w", w.Name(), err)
	}
	row.Transfer = transferTime(prof, coarseP) + transferTime(prof, fineP)
	return row, nil
}

// profiled is a timeRun attach that installs ValueExpert with cfg and
// leaves the profiler in *p.
func profiled(cfg core.Config, p **core.Profiler) func(*cuda.Runtime) func() {
	return func(rt *cuda.Runtime) func() {
		*p = core.Attach(rt, cfg)
		return (*p).Detach
	}
}

// transferTime is a detached profiler's modelled device-to-host transfer
// time: its snapshot refreshes (Overhead.SnapshotTime) plus its record
// buffer flushes, each flush one copy call at gvprof.RecordBytes a
// record, as GVProf's drains are priced. The copy cost is linear in
// bytes, so spreading the records evenly over the flushes prices their
// total exactly up to nanosecond rounding.
func transferTime(prof gpu.Profile, p *core.Profiler) time.Duration {
	st := p.Report().Stats
	t := p.Overhead().SnapshotTime
	for i := range st.BufferFlushes {
		recs := st.AccessRecords*(i+1)/st.BufferFlushes - st.AccessRecords*i/st.BufferFlushes
		t += prof.CopyCost(recs*gvprof.RecordBytes, gpu.CopyDeviceToHost)
	}
	return t
}

// timeRun runs w once on a fresh runtime of prof and returns its wall
// time. attach, when non-nil, installs a profiler and returns its detach
// function; the timed region ends after detach, so analysis still queued
// when the program returns is charged to this run and cannot spill into
// the next one.
func timeRun(w workloads.Workload, prof gpu.Profile, attach func(*cuda.Runtime) func()) (time.Duration, error) {
	rt := cuda.NewRuntime(prof)
	detach := func() {}
	if attach != nil {
		detach = attach(rt)
	}
	start := time.Now()
	err := w.Run(rt, workloads.Original)
	detach()
	return time.Since(start), err
}

// Aggregates for device name d ("" = all rows).
func (r *Figure6Result) aggregate(device string, f func(OverheadRow) float64, agg func([]float64) float64) float64 {
	var vals []float64
	for _, row := range r.Rows {
		if device != "" && row.Device != device {
			continue
		}
		if v := f(row); v > 0 {
			vals = append(vals, v)
		}
	}
	return agg(vals)
}

// MedianCoarse reports the device's median coarse overhead (paper: 3.38×
// on 2080 Ti, 4.28× on A100).
func (r *Figure6Result) MedianCoarse(device string) float64 {
	return r.aggregate(device, OverheadRow.CoarseOverhead, median)
}

// MedianFine reports the device's median fine overhead (paper: 3.97× /
// 4.18×).
func (r *Figure6Result) MedianFine(device string) float64 {
	return r.aggregate(device, OverheadRow.FineOverhead, median)
}

// GeomeanTotal reports the device's geometric-mean total overhead (the
// Table 5 "7.8×" figure sums the coarse and fine runs).
func (r *Figure6Result) GeomeanTotal(device string) float64 {
	return r.aggregate(device, OverheadRow.TotalOverhead, geomean)
}

// Render prints the overhead series.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: ValueExpert profiling overhead (× native run time)\n")
	fmt.Fprintf(&b, "%-24s %-14s %10s %10s %10s\n", "Application", "Device", "native", "coarse", "fine")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %-14s %10s %9.2fx %9.2fx\n",
			row.App, row.Device, row.Native.Round(time.Microsecond),
			row.CoarseOverhead(), row.FineOverhead())
	}
	for _, d := range []string{"RTX 2080 Ti", "A100"} {
		fmt.Fprintf(&b, "median on %s: coarse %.2fx, fine %.2fx; geomean total %.2fx\n",
			d, r.MedianCoarse(d), r.MedianFine(d), r.GeomeanTotal(d))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5 — comparison with existing redundancy tools.
// ---------------------------------------------------------------------------

// ToolRow is one tool's capability row.
type ToolRow struct {
	Tool             string
	Redundancy       bool
	ValuePatterns    bool
	GranularityAPI   bool // result granularity: GPU API vs instruction
	ValueFlows       bool
	GPUAnalysis      bool
	GeomeanOverhead  float64
	OverheadMeasured bool // measured here vs quoted from the paper

	// GeomeanTransfer is the geomean over the measured runs of the
	// modelled GPU→CPU transfer time, priced by gpu.Profile.CopyCost;
	// zero for the published rows.
	GeomeanTransfer time.Duration
}

// Table5Result compares ValueExpert against GVProf (both measured) and
// the published CPU tools (quoted).
type Table5Result struct {
	Rows []ToolRow
}

// Table5 measures ValueExpert's and GVProf's overhead on a subset of
// workloads (the Rodinia benchmarks, to bound run time) and combines them
// with the published figures for the CPU-only tools. Beside each measured
// tool's wall-clock overhead it models the tool's GPU→CPU transfer time
// over the same runs, a comparison that does not depend on machine load.
func Table5(opts Options) (*Table5Result, error) {
	opts = opts.withDefaults()
	var veTotals, gvTotals, veTransfers, gvTransfers []float64
	for _, w := range workloads.All(opts.Scale) {
		if isRealApp(w.Name()) {
			continue // bound measurement to the benchmark suite
		}
		// ValueExpert as in Figure 6 (benchmark configuration), then GVProf.
		row, err := overheadRow(w, opts.Devices[0])
		if err != nil {
			return nil, err
		}
		var gp *gvprof.Profiler
		gv, err := timeRun(w, opts.Devices[0], func(rt *cuda.Runtime) func() {
			gp = gvprof.Attach(rt)
			return gp.Detach
		})
		if err != nil {
			return nil, err
		}
		veTotals = append(veTotals, row.TotalOverhead())
		gvTotals = append(gvTotals, ratio(gv, row.Native))
		veTransfers = append(veTransfers, float64(row.Transfer))
		gvTransfers = append(gvTransfers, float64(gp.CopyTime()))
	}

	return &Table5Result{Rows: []ToolRow{
		{Tool: "ValueExpert", Redundancy: true, ValuePatterns: true, GranularityAPI: true,
			ValueFlows: true, GPUAnalysis: true, GeomeanOverhead: geomean(veTotals), OverheadMeasured: true,
			GeomeanTransfer: time.Duration(geomean(veTransfers))},
		{Tool: "GVProf", Redundancy: true, GPUAnalysis: true,
			GeomeanOverhead: geomean(gvTotals), OverheadMeasured: true,
			GeomeanTransfer: time.Duration(geomean(gvTransfers))},
		// Published overheads for the CPU-only tools (paper Table 5).
		{Tool: "Witch", Redundancy: true, GeomeanOverhead: 2.1},
		{Tool: "RedSpy", Redundancy: true, GeomeanOverhead: 19.1},
		{Tool: "LoadSpy", Redundancy: true, GeomeanOverhead: 26.0},
		{Tool: "RVN", Redundancy: true, GeomeanOverhead: 33.9},
	}}, nil
}

// Row returns the named tool's row.
func (r *Table5Result) Row(tool string) (ToolRow, bool) {
	for _, row := range r.Rows {
		if row.Tool == tool {
			return row, true
		}
	}
	return ToolRow{}, false
}

// Render prints the comparison in Table 5's layout.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 5: ValueExpert vs existing redundancy analysis tools\n")
	fmt.Fprintf(&b, "%-14s %-11s %-14s %-12s %-11s %-13s %-14s %s\n",
		"Tool", "Redundancy", "ValuePatterns", "Granularity", "ValueFlows", "GPU analysis",
		"Model transfer", "Geomean overhead")
	for _, row := range r.Rows {
		gran := "Instruction"
		if row.GranularityAPI {
			gran = "GPU API"
		}
		src, transfer := " (published)", "-"
		if row.OverheadMeasured {
			src, transfer = " (measured)", row.GeomeanTransfer.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-14s %-11s %-14s %-12s %-11s %-13s %-14s %.1fx%s\n",
			row.Tool, mark(row.Redundancy), mark(row.ValuePatterns), gran,
			mark(row.ValueFlows), mark(row.GPUAnalysis), transfer, row.GeomeanOverhead, src)
	}
	b.WriteString("Model transfer: geomean GPU→CPU copy time per workload, priced by the device's copy cost over the same runs\n")
	return b.String()
}

func mark(ok bool) string {
	if ok {
		return "Support"
	}
	return "N/A"
}
