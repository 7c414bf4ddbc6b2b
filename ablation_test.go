package valueexpert

// Ablation benchmarks for the design choices DESIGN.md §4 calls out:
// sampling period, device-buffer size, snapshot copy strategy, and the
// reuse-distance extension's cost. Each sweeps one knob on a fixed
// workload so the isolated effect is visible in the ns/op column.

import (
	"fmt"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/workloads"
)

func runWorkload(b *testing.B, name string, scale int, cfg *core.Config) {
	b.Helper()
	w, err := workloads.Lookup(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		if cfg != nil {
			c := *cfg
			c.Program = name
			core.Attach(rt, c)
		}
		if err := w.Run(rt, workloads.Original); err != nil {
			b.Fatal(err)
		}
	}
}

// Sampling period: fine-grained overhead as a function of the
// hierarchical kernel/block sampling period (§6.2).
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	b.Run("native", func(b *testing.B) { runWorkload(b, "Rodinia/cfd", 4, nil) })
	for _, period := range []int{1, 5, 20, 100} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			runWorkload(b, "Rodinia/cfd", 4, &core.Config{
				Fine:                 true,
				KernelSamplingPeriod: period,
				BlockSamplingPeriod:  period,
			})
		})
	}
}

// Buffer size: the cost of the device-buffer flush protocol as the buffer
// shrinks (more flushes, more GPU→CPU round trips).
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, records := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			runWorkload(b, "Rodinia/backprop", 4, &core.Config{
				Coarse:        true,
				BufferRecords: records,
			})
		})
	}
}

// Copy strategy: coarse-grained snapshot maintenance under each Figure 5
// strategy, on a strided workload where the strategies differ most.
func BenchmarkAblationCopyStrategy(b *testing.B) {
	for _, strat := range []CopyStrategy{DirectCopy, MinMaxCopy, SegmentCopy, AdaptiveCopy} {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := &core.Config{Coarse: true, CopyStrategy: strat}
			runWorkload(b, "Rodinia/pathfinder", 4, cfg)
		})
	}
}

// Reuse-distance extension: measurement cost of the follow-on analysis
// relative to the native run.
func BenchmarkAblationReuseDistance(b *testing.B) {
	b.Run("native", func(b *testing.B) { runWorkload(b, "Rodinia/hotspot", 4, nil) })
	b.Run("fine", func(b *testing.B) {
		runWorkload(b, "Rodinia/hotspot", 4, &core.Config{Fine: true})
	})
	b.Run("fine+reuse", func(b *testing.B) {
		runWorkload(b, "Rodinia/hotspot", 4, &core.Config{Fine: true, ReuseDistance: true})
	})
	b.Run("coarse+reuse", func(b *testing.B) {
		runWorkload(b, "Rodinia/hotspot", 4, &core.Config{Coarse: true, ReuseDistance: true})
	})
}

// Warp/range compaction: instrumented cost with the compaction-friendly
// coalesced kernel vs a scattered one, isolating what source-level
// compaction buys the pipeline.
func BenchmarkAblationCompaction(b *testing.B) {
	const n = 1 << 18
	kernels := map[string]func(buf cuda.DevPtr) *gpu.GoKernel{
		"coalesced": func(buf cuda.DevPtr) *gpu.GoKernel {
			return &gpu.GoKernel{Name: "coalesced", Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= n {
					return
				}
				t.StoreF32(0, uint64(buf)+uint64(4*i), 1)
			}}
		},
		"scattered": func(buf cuda.DevPtr) *gpu.GoKernel {
			return &gpu.GoKernel{Name: "scattered", Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= n {
					return
				}
				j := (i * 2654435761) % n
				t.StoreF32(0, uint64(buf)+uint64(4*j), 1)
			}}
		},
	}
	for name, mk := range kernels {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := cuda.NewRuntime(gpu.RTX2080Ti)
				core.Attach(rt, core.Config{Coarse: true, Program: name})
				buf, err := rt.MallocF32(n, "buf")
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Launch(mk(buf), gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
