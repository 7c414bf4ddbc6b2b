package core

import (
	"io"
	"runtime/metrics"
	"slices"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/workloads"
)

// darknetAllocBudget bounds the heap bytes one warm profiled Darknet
// run at scale 32 allocates (median of five) under the synchronous
// reference driver. The asynchronous engine allocates each of its up to
// four 2.5 MB flush buffers only when analysis lags, so its total moves
// with machine load (21–27 MB per run); the synchronous driver recycles
// every buffer before the next flush, so one buffer serves the run and
// the total is the same from run to run (spread 0.5 MB). The budget is
// that median before flush buffers carried their own range captures,
// 11.5 MB, plus 0.5 MB (4 %) of headroom; the change measured 11.3 MB.
// Flush buffers that dropped their capture storage at each recycle
// measured 14.8 MB.
const darknetAllocBudget = 12e6

// TestDarknetAllocationBudget profiles Darknet warm, reads the runtime's
// cumulative allocation counter around each profile, Detach, Report and
// WriteJSON, and holds the median to darknetAllocBudget.
func TestDarknetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	wl, err := workloads.Lookup("Darknet", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Coarse: true, Fine: true, Program: wl.Name()}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	run := func() uint64 {
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		p, err := cuda.Drive(cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
			return wl.Run(rt, workloads.Original)
		}), func(rt *cuda.Runtime) *Profiler { return attachMode(rt, cfg, true) })
		if err != nil {
			t.Fatal(err)
		}
		p.Detach()
		if err := p.Report().WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		metrics.Read(sample)
		return sample[0].Value.Uint64() - before
	}
	run() // warm: first-use allocations of the runtime and the program
	allocs := make([]uint64, 5)
	for i := range allocs {
		allocs[i] = run()
	}
	slices.Sort(allocs)
	if med := allocs[len(allocs)/2]; med > darknetAllocBudget {
		t.Fatalf("a profiled Darknet run allocates %.1f MB (median of %v), budget %.1f MB",
			float64(med)/1e6, allocs, darknetAllocBudget/1e6)
	}
}
