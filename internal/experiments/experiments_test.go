package experiments

import (
	"strings"
	"testing"

	"valueexpert/gpu"
)

// testOpts shrinks problems so the whole experiment suite runs in seconds.
var testOpts = Options{Scale: 64}

func TestTable1FullAgreement(t *testing.T) {
	t.Parallel()
	res, err := Table1(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 19 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if missing := res.MissingExpected(); len(missing) != 0 {
		t.Fatalf("patterns missing vs paper Table 1: %v", missing)
	}
	out := res.Render()
	for _, frag := range []string{"Table 1", "Darknet", "Rodinia/bfs", "LAMMPS"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q", frag)
		}
	}
}

func TestTable3SpeedupShape(t *testing.T) {
	t.Parallel()
	// Near full scale: kernel times must sit well above launch latency
	// for the speedup shapes to be visible, as in the paper's inputs.
	res, err := Table3(Options{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 19 || len(res.DeviceNames) != 2 {
		t.Fatalf("rows/devices = %d/%d", len(res.Rows), len(res.DeviceNames))
	}
	const ti, a100 = 0, 1

	get := func(app string) Table3Row {
		row, ok := res.Row(app)
		if !ok {
			t.Fatalf("missing row %q", app)
		}
		return row
	}

	// Backprop: dramatic on the FP64-starved 2080 Ti, modest on A100
	// (paper: 8.18× vs 1.67×).
	bp := get("Rodinia/backprop")
	if s := bp.Devices[ti].KernelSpeedup(); s < 3 {
		t.Errorf("backprop 2080Ti kernel speedup = %.2f, want >= 3", s)
	}
	if sTi, sA := bp.Devices[ti].KernelSpeedup(), bp.Devices[a100].KernelSpeedup(); sTi < 1.5*sA {
		t.Errorf("backprop asymmetry lost: 2080Ti %.2f vs A100 %.2f", sTi, sA)
	}

	// CFD: large kernel speedups on both platforms (paper: 8.28× / 6.05×),
	// with the bigger win on the lower-bandwidth 2080 Ti.
	cfd := get("Rodinia/cfd")
	if s := cfd.Devices[ti].KernelSpeedup(); s < 3 {
		t.Errorf("cfd kernel speedup on %s = %.2f, want >= 3", res.DeviceNames[ti], s)
	}
	if s := cfd.Devices[a100].KernelSpeedup(); s < 2 {
		t.Errorf("cfd kernel speedup on %s = %.2f, want >= 2", res.DeviceNames[a100], s)
	}

	// Pathfinder: memory-time dominated (paper: 4.21× / 3.27× memory).
	pf := get("Rodinia/pathfinder")
	if s := pf.Devices[ti].MemorySpeedup(); s < 2 {
		t.Errorf("pathfinder memory speedup = %.2f, want >= 2", s)
	}

	// hotspot3D: ~2× kernel on both (paper 2.00× / 1.99×).
	h3 := get("Rodinia/hotspot3D")
	for _, di := range []int{ti, a100} {
		if s := h3.Devices[di].KernelSpeedup(); s < 1.4 || s > 5 {
			t.Errorf("hotspot3D kernel speedup = %.2f, want ~2", s)
		}
	}

	// Memory-only rows report no kernel speedup, like the paper's "-".
	for _, app := range []string{"Rodinia/streamcluster", "QMCPACK", "LAMMPS"} {
		row := get(app)
		if row.Devices[ti].HasKernel {
			t.Errorf("%s should be a memory-only row", app)
		}
		if row.Devices[ti].KernelSpeedup() != 0 {
			t.Errorf("%s kernel speedup should be absent", app)
		}
	}

	// streamcluster and LAMMPS: substantial memory speedups (2.39×, 6.03×).
	if s := get("Rodinia/streamcluster").Devices[ti].MemorySpeedup(); s < 1.3 {
		t.Errorf("streamcluster memory speedup = %.2f, want >= 1.3", s)
	}
	if s := get("LAMMPS").Devices[ti].MemorySpeedup(); s < 1.5 {
		t.Errorf("LAMMPS memory speedup = %.2f, want >= 1.5", s)
	}

	// lavaMD: memory improves, kernel does not (paper 0.99× kernel, 1.49×
	// memory).
	lv := get("Rodinia/lavaMD")
	if s := lv.Devices[ti].MemorySpeedup(); s < 1.2 {
		t.Errorf("lavaMD memory speedup = %.2f, want >= 1.2", s)
	}
	if s := lv.Devices[ti].KernelSpeedup(); s > 1.1 {
		t.Errorf("lavaMD kernel speedup = %.2f, want ~1 (decode overhead)", s)
	}

	// NAMD and QMCPACK: no win — the inefficiency is off the bottleneck
	// (paper: 1.00×).
	for _, app := range []string{"NAMD", "QMCPACK"} {
		row := get(app)
		if s := row.Devices[ti].MemorySpeedup(); s < 0.95 || s > 1.1 {
			t.Errorf("%s memory speedup = %.2f, want ~1.00", app, s)
		}
	}
	if s := get("NAMD").Devices[ti].KernelSpeedup(); s < 0.95 || s > 1.1 {
		t.Errorf("NAMD kernel speedup should be ~1.00, got %.2f", s)
	}

	// Headline shape: geometric-mean kernel speedup higher on RTX 2080 Ti
	// than on A100 (paper: 1.58× vs 1.39×), and both > 1.
	gTi, gA := res.GeomeanKernelSpeedup(ti), res.GeomeanKernelSpeedup(a100)
	if gTi <= gA {
		t.Errorf("geomean kernel speedups: 2080Ti %.2f should exceed A100 %.2f", gTi, gA)
	}
	if gTi < 1.1 || gA < 1.05 {
		t.Errorf("geomean kernel speedups too small: %.2f / %.2f", gTi, gA)
	}
	// Memory speedups > 1 on both.
	if res.GeomeanMemorySpeedup(ti) <= 1 || res.GeomeanMemorySpeedup(a100) <= 1 {
		t.Errorf("geomean memory speedups: %.2f / %.2f",
			res.GeomeanMemorySpeedup(ti), res.GeomeanMemorySpeedup(a100))
	}
	if res.MedianKernelSpeedup(ti) <= 1 {
		t.Errorf("median kernel speedup = %.2f", res.MedianKernelSpeedup(ti))
	}

	for _, frag := range []string{"Table 3", "Geometric Mean", "Median", "Darknet"} {
		if !strings.Contains(res.Render(), frag) {
			t.Fatalf("Table 3 render missing %q", frag)
		}
	}
	if !strings.Contains(res.RenderTable4(), "Table 4") {
		t.Fatal("Table 4 render")
	}
}

// TestFigure6OverheadShape and TestTable5Comparison stay serial: they
// assert wall-clock ratios, which concurrent tests would skew.
func TestFigure6OverheadShape(t *testing.T) {
	res, err := Figure6(Options{Scale: 32, Devices: []gpu.Profile{gpu.RTX2080Ti}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 19 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Native <= 0 || row.Coarse <= 0 || row.Fine <= 0 {
			t.Fatalf("%s: missing timings %+v", row.App, row)
		}
	}
	// Profiling costs something but stays within a moderate multiple —
	// the paper's overheads are single-digit ×, ours should stay under a
	// loose ceiling at test scale.
	med := res.MedianCoarse("RTX 2080 Ti")
	if med < 1 {
		t.Errorf("median coarse overhead %.2f < 1", med)
	}
	if med > 100 {
		t.Errorf("median coarse overhead %.2f implausibly high", med)
	}
	if f := res.MedianFine("RTX 2080 Ti"); f < 1 || f > 100 {
		t.Errorf("median fine overhead %.2f out of range", f)
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render")
	}
}

func TestTable5Comparison(t *testing.T) {
	res, err := Table5(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	ve, ok := res.Row("ValueExpert")
	if !ok || !ve.ValuePatterns || !ve.ValueFlows || !ve.GranularityAPI || !ve.OverheadMeasured {
		t.Fatalf("ValueExpert row = %+v", ve)
	}
	gv, ok := res.Row("GVProf")
	if !ok || gv.ValuePatterns || gv.ValueFlows || !gv.GPUAnalysis {
		t.Fatalf("GVProf row = %+v", gv)
	}
	if ve.GeomeanOverhead <= 1 || gv.GeomeanOverhead <= 1 {
		t.Fatalf("overheads not measured: VE %.2f, GVProf %.2f", ve.GeomeanOverhead, gv.GeomeanOverhead)
	}
	// The paper's core claim: GVProf costs much more than ValueExpert
	// (47.3× vs 7.8× geomean). The race detector's per-access
	// instrumentation skews the two tools' relative wall-clock costs, so
	// the ordering is only asserted in uninstrumented builds.
	if !raceEnabled && gv.GeomeanOverhead <= ve.GeomeanOverhead {
		t.Errorf("GVProf overhead %.2f should exceed ValueExpert's %.2f",
			gv.GeomeanOverhead, ve.GeomeanOverhead)
	}
	// Published CPU-tool rows present.
	for _, tool := range []string{"Witch", "RedSpy", "LoadSpy", "RVN"} {
		if _, ok := res.Row(tool); !ok {
			t.Errorf("missing tool row %q", tool)
		}
	}
	if !strings.Contains(res.Render(), "Table 5") {
		t.Fatal("render")
	}
}

func TestFigure2DarknetGraph(t *testing.T) {
	t.Parallel()
	res, err := Figure2(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 8 || res.Edges < 8 {
		t.Fatalf("graph too small: %d nodes, %d edges", res.Nodes, res.Edges)
	}
	// The two inefficiencies make red (redundant) flows: the fill→gemm
	// chain and the host zero copies.
	if res.RedEdges < 2 {
		t.Fatalf("red edges = %d, want >= 2:\n%s", res.RedEdges, res.Graph.Summary())
	}
	for _, frag := range []string{"digraph", "color=red", "fill_kernel", "gemm_kernel"} {
		if !strings.Contains(res.DOT, frag) {
			t.Fatalf("DOT missing %q", frag)
		}
	}
}

func TestFigure3Graphs(t *testing.T) {
	t.Parallel()
	res, err := Figure3(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Full.NumEdges() < 6 {
		t.Fatalf("full graph edges = %d:\n%s", res.Full.NumEdges(), res.Full.Summary())
	}
	// The slice on the B_dev zero-kernel must drop A_dev's chain.
	for _, e := range res.Slice.Edges() {
		if e.Object == 1 {
			t.Fatalf("A_dev edge in slice: %+v", e)
		}
	}
	if res.Slice.NumEdges() >= res.Full.NumEdges() {
		t.Fatal("slice did not shrink the graph")
	}
	if res.Important.NumEdges() == 0 || res.Important.NumEdges() > res.Full.NumEdges() {
		t.Fatalf("important graph edges = %d", res.Important.NumEdges())
	}
	if !strings.Contains(res.DOT, "zero_kernel") {
		t.Fatal("DOT missing kernels")
	}
}

func TestOptionsDefaults(t *testing.T) {
	t.Parallel()
	o := Options{}.withDefaults()
	if o.Scale != 1 || len(o.Devices) != 2 {
		t.Fatalf("defaults = %+v", o)
	}
}
