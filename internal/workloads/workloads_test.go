package workloads

import (
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/vpattern"
)

// testScale shrinks problem sizes for unit tests; benchmarks use full
// scale.
const testScale = 64

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	names := map[string]bool{}
	for _, w := range All(testScale) {
		if names[w.Name()] {
			t.Fatalf("duplicate workload %q", w.Name())
		}
		names[w.Name()] = true
	}
	// The 19 applications of Table 1.
	if len(names) != 19 {
		t.Fatalf("registry has %d workloads, want 19", len(names))
	}
	for _, want := range []string{
		"Rodinia/bfs", "Rodinia/backprop", "Rodinia/sradv1", "Rodinia/hotspot",
		"Rodinia/pathfinder", "Rodinia/cfd", "Rodinia/huffman", "Rodinia/lavaMD",
		"Rodinia/hotspot3D", "Rodinia/streamcluster", "Darknet", "QMCPACK",
		"Castro", "BarraCUDA", "PyTorch-Deepwave", "PyTorch-Bert",
		"PyTorch-Resnet50", "NAMD", "LAMMPS",
	} {
		if !names[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	w, err := Lookup("Darknet", testScale)
	if err != nil || w.Name() != "Darknet" {
		t.Fatalf("Lookup: %v, %v", w, err)
	}
	if _, err := Lookup("nope", testScale); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// ByName binds bench/'s Scale, which nothing here sets from its
	// default of 1.
	if w, err := ByName("Darknet"); err != nil || w.(*darknet).scale != 1 {
		t.Fatalf("ByName: %v, %v", w, err)
	}
}

// Every workload must run cleanly in both variants on both devices.
func TestAllWorkloadsRunBothVariants(t *testing.T) {
	t.Parallel()
	for _, w := range All(testScale) {
		for _, v := range []Variant{Original, Optimized} {
			for _, prof := range gpu.Profiles() {
				rt := cuda.NewRuntime(prof)
				if err := w.Run(rt, v); err != nil {
					t.Fatalf("%s (%s, %s): %v", w.Name(), v, prof.Name, err)
				}
				st := rt.Device().Stats()
				if st.KernelLaunches == 0 {
					t.Fatalf("%s (%s): no kernels launched", w.Name(), v)
				}
				if st.MemcpyCalls == 0 && st.MemsetCalls == 0 {
					t.Fatalf("%s (%s): no memory operations", w.Name(), v)
				}
			}
		}
	}
}

// Table 1: profiling the original variant must detect every pattern the
// paper reports for that application (extras are allowed — our miniatures
// sometimes expose more than the paper's table records).
func TestTable1ExpectedPatternsDetected(t *testing.T) {
	t.Parallel()
	for _, w := range All(testScale) {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := core.Attach(rt, core.Config{
			Coarse: true, Fine: true, Program: w.Name(),
		})
		if err := w.Run(rt, Original); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		got := p.Report().PatternSet()
		for _, k := range w.ExpectedPatterns() {
			if !got[k.String()] {
				t.Errorf("%s: pattern %q not detected (got %v)", w.Name(), k, got)
			}
		}
	}
}

// The optimization must target patterns the tool actually reports.
func TestOptimizedPatternsAreDetected(t *testing.T) {
	t.Parallel()
	for _, w := range All(testScale) {
		expected := map[vpattern.Kind]bool{}
		for _, k := range w.ExpectedPatterns() {
			expected[k] = true
		}
		if len(w.OptimizedPatterns()) == 0 {
			t.Errorf("%s: no optimized patterns declared", w.Name())
		}
		for _, k := range w.OptimizedPatterns() {
			if !expected[k] {
				t.Errorf("%s: optimizes pattern %q not in its expected set", w.Name(), k)
			}
		}
	}
}

// Running the optimized variant must never do more device work than the
// original: kernel time and memory time may only shrink or stay flat
// (small tolerance for bookkeeping differences).
func TestOptimizedNeverSlower(t *testing.T) {
	t.Parallel()
	for _, w := range All(testScale) {
		for _, prof := range gpu.Profiles() {
			times := func(v Variant) (kernel, memory float64) {
				rt := cuda.NewRuntime(prof)
				tc := cuda.NewTimeCollector()
				rt.SetInterceptor(tc)
				if err := w.Run(rt, v); err != nil {
					t.Fatalf("%s: %v", w.Name(), err)
				}
				var kt float64
				if hot := w.HotKernels(); len(hot) > 0 {
					for _, k := range hot {
						kt += float64(tc.KernelTime(k))
					}
				} else {
					kt = float64(tc.TotalKernelTime())
				}
				return kt, float64(tc.MemoryTime())
			}
			ok, om := times(Original)
			nk, nm := times(Optimized)
			if nk > ok*1.10 {
				t.Errorf("%s on %s: optimized kernel time %.0f > original %.0f",
					w.Name(), prof.Name, nk, ok)
			}
			if nm > om*1.10 {
				t.Errorf("%s on %s: optimized memory time %.0f > original %.0f",
					w.Name(), prof.Name, nm, om)
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	t.Parallel()
	if Original.String() != "original" || Optimized.String() != "optimized" {
		t.Fatal("Variant.String")
	}
}

func TestScaledFloor(t *testing.T) {
	t.Parallel()
	if (size{1}).scaled(1) != 32 || (size{testScale}).scaled(1<<10) != 32 {
		t.Fatal("scaled floor violated")
	}
	if got := (size{4}).scaled(1 << 10); got != 256 {
		t.Fatalf("size{4}.scaled(1024) = %d, want 256", got)
	}
}
