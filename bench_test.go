package valueexpert

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§7). Each benchmark regenerates its experiment at full scale
// and prints the resulting rows once, so `go test -bench . -benchmem`
// reproduces the paper's artifacts in one run:
//
//	Table 1  -> BenchmarkTable1PatternMatrix
//	Table 3  -> BenchmarkTable3Speedups
//	Table 4  -> BenchmarkTable4PatternSpeedups
//	Table 5  -> BenchmarkTable5ToolComparison
//	Figure 2 -> BenchmarkFigure2DarknetVFG
//	Figure 4 -> BenchmarkFigure4IntervalMerge (+ ablations)
//	Figure 5 -> BenchmarkFigure5CopyStrategies
//	Figure 6 -> BenchmarkFigure6Overhead

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"valueexpert/internal/experiments"
	"valueexpert/internal/interval"
)

var fullScale = experiments.Options{Scale: 1}

// printOnce guards table printing so repeated benchmark iterations do not
// spam the output.
var printOnce sync.Map

func printTable(name, text string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable1PatternMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		if missing := res.MissingExpected(); len(missing) != 0 {
			b.Fatalf("Table 1 disagreement: %v", missing)
		}
		printTable("table1", res.Render())
	}
}

func BenchmarkTable3Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table3", res.Render())
		b.ReportMetric(res.GeomeanKernelSpeedup(0), "geomean-kernel-2080Ti")
		b.ReportMetric(res.GeomeanKernelSpeedup(1), "geomean-kernel-A100")
		b.ReportMetric(res.GeomeanMemorySpeedup(0), "geomean-memory-2080Ti")
		b.ReportMetric(res.GeomeanMemorySpeedup(1), "geomean-memory-A100")
	}
}

func BenchmarkTable4PatternSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table4", res.RenderTable4())
	}
}

func BenchmarkTable5ToolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table5", res.Render())
		ve, _ := res.Row("ValueExpert")
		gv, _ := res.Row("GVProf")
		b.ReportMetric(ve.GeomeanOverhead, "valueexpert-overhead-x")
		b.ReportMetric(gv.GeomeanOverhead, "gvprof-overhead-x")
	}
}

func BenchmarkFigure2DarknetVFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		printTable("figure2", fmt.Sprintf(
			"Figure 2: Darknet value flow graph — %d nodes, %d edges, %d red (redundant) edges\n(DOT via cmd/vxflow -fig 2)",
			res.Nodes, res.Edges, res.RedEdges))
		b.ReportMetric(float64(res.Nodes), "nodes")
		b.ReportMetric(float64(res.Edges), "edges")
	}
}

func BenchmarkFigure6Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		printTable("figure6", res.Render())
		b.ReportMetric(res.MedianCoarse("RTX 2080 Ti"), "median-coarse-x")
		b.ReportMetric(res.MedianFine("RTX 2080 Ti"), "median-fine-x")
		b.ReportMetric(res.GeomeanTotal("RTX 2080 Ti"), "geomean-total-x")
	}
}

// Figure 4: the parallel interval merge against the sequential baseline,
// on streamcluster-like interval volumes. Sub-benchmarks ablate the
// algorithm choice (§6.1's headline systems contribution).
func figure4Intervals(n int) []interval.Interval {
	rng := rand.New(rand.NewSource(99))
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		// Mixed coalesced + scattered accesses.
		var s uint64
		if i%4 == 0 {
			s = rng.Uint64() % (1 << 28)
		} else {
			s = ivs[i-1].Start + 4
		}
		ivs[i] = interval.Interval{Start: s, End: s + 4}
	}
	return ivs
}

func BenchmarkFigure4IntervalMerge(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20, 1 << 22} {
		ivs := figure4Intervals(n)
		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				interval.MergeSequential(ivs)
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			m := interval.NewMerger(0)
			for i := 0; i < b.N; i++ {
				m.MergeParallel(ivs)
			}
		})
	}
}

// Figure 5: the three snapshot copy strategies plus the adaptive policy,
// priced with the PCIe cost model, under sparse and dense access mixes.
func BenchmarkFigure5CopyStrategies(b *testing.B) {
	model := interval.CopyCostModel{PerCall: 7 * time.Microsecond, Bandwidth: 12e9}
	obj := interval.Interval{Start: 0, End: 64 << 20}
	shapes := map[string][]interval.Interval{
		"sparse": {{Start: 0, End: 4096}, {Start: 32 << 20, End: 32<<20 + 4096}},
		"dense": func() []interval.Interval {
			var ivs []interval.Interval
			for i := 0; i < 200; i++ {
				s := uint64(i * 320 << 10)
				ivs = append(ivs, interval.Interval{Start: s, End: s + 256<<10})
			}
			return ivs
		}(),
		"fragmented": func() []interval.Interval {
			var ivs []interval.Interval
			for i := 0; i < 5000; i++ {
				s := uint64(i * 12800)
				ivs = append(ivs, interval.Interval{Start: s, End: s + 64})
			}
			return ivs
		}(),
	}
	for shape, merged := range shapes {
		for _, strat := range []interval.CopyStrategy{
			interval.DirectCopy, interval.MinMaxCopy, interval.SegmentCopy, interval.AdaptiveCopy,
		} {
			b.Run(fmt.Sprintf("%s/%s", shape, strat), func(b *testing.B) {
				var cost time.Duration
				for i := 0; i < b.N; i++ {
					plan := interval.PlanCopy(strat, obj, merged)
					cost = model.Cost(plan)
				}
				b.ReportMetric(float64(cost.Microseconds()), "simulated-us")
			})
		}
	}
}
