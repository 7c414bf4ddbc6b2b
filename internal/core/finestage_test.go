package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/vpattern"
)

// testFineBatch synthesizes a resolved batch of n records over a handful
// of objects, mixing plain accesses with compacted store ranges and load
// ranges of every width and kind, captured or not, the shapes the fine
// stage ingests.
func testFineBatch(rng *rand.Rand, n int) *Batch {
	b := &Batch{Recs: make([]gpu.Access, n), IDs: make([]int, n)}
	for i := range b.Recs {
		a := gpu.Access{
			Addr: uint64(rng.Intn(1<<14)) * 4, Size: 4, Kind: gpu.KindFloat,
			Raw: gpu.RawFromFloat32(float32(rng.Intn(32)) * 0.5), Store: rng.Intn(2) == 0,
		}
		if i%97 == 0 { // compacted store range: value repeats per element
			a.Store = true
			a.Count = 4
		}
		b.Recs[i] = a
		b.IDs[i] = rng.Intn(4)
	}
	// Load ranges spread over the batch, so a launch split into several
	// batches decodes them in different ones. All but the last decode
	// from the batch's capture buffer.
	loads := []gpu.Access{
		{Addr: 0x100, Size: 4, Kind: gpu.KindUint, Count: 3},
		{Addr: 0x200, Size: 1, Kind: gpu.KindUint, Count: 40},
		{Addr: 0x300, Size: 2, Kind: gpu.KindInt, Count: 17},
		{Addr: 0x400, Size: 8, Kind: gpu.KindInt, Count: 9},
		{Addr: 0x500, Size: 8, Kind: gpu.KindFloat, Count: 33},
		{Addr: 0x600, Size: 4, Kind: gpu.KindFloat, Count: 5},
	}
	b.rangeOff = make([]int32, n)
	for i := range b.rangeOff {
		b.rangeOff[i] = -1
	}
	for j, a := range loads {
		i := 1 + j*(n/len(loads))
		b.Recs[i] = a
		if j == len(loads)-1 {
			break // no capture
		}
		b.rangeOff[i] = int32(len(b.rangeBytes))
		for e := 0; e < a.Elems(); e++ {
			var elem [8]byte
			v := uint64(rng.Intn(8))
			if a.Kind == gpu.KindFloat {
				v = gpu.RawFromFloat64(float64(v) * 0.25)
			}
			binary.LittleEndian.PutUint64(elem[:], v)
			b.rangeBytes = append(b.rangeBytes, elem[:a.Size]...)
		}
	}
	return b
}

// withSweep appends to b a store sweep of linear values over object 4,
// so the structured-values detector fires and its float sums show in the
// report.
func withSweep(b *Batch, n int) *Batch {
	for k := 0; k < n; k++ {
		b.Recs = append(b.Recs, gpu.Access{
			Addr: 0x10000 + uint64(4*k), Size: 4, Kind: gpu.KindFloat, Store: true,
			Raw: gpu.RawFromFloat32(0.1*float32(k) + 3),
		})
		b.IDs = append(b.IDs, 4)
		b.rangeOff = append(b.rangeOff, -1)
	}
	return b
}

// TestFineCompactAllocsFree: once warm, the hand-off of a flushed batch
// allocates nothing: the kernel goroutine's object resolution, value
// capture and submit, and the analysis goroutine's fine analysis and
// release of the batch.
func TestFineCompactAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates around goroutine hand-offs")
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true})
	defer p.Detach()
	base, err := rt.Malloc(1<<17, "x")
	if err != nil {
		t.Fatal(err)
	}
	b := testFineBatch(rand.New(rand.NewSource(31)), 2048)
	recs := append([]gpu.Access(nil), b.Recs...)
	for i := range recs {
		recs[i].Addr += uint64(base)
	}
	ls := &launchState{stages: []LaunchAnalysis{p.stages[0].LaunchBegin("k")}, needVals: true, async: true}
	handOff := func() {
		p.flush(ls, recs)
		p.an.wait()
	}
	handOff() // warm the batch shell and the launch accumulator
	if allocs := testing.AllocsPerRun(20, handOff); allocs != 0 {
		t.Fatalf("hand-off allocated %.1f times per warmed batch, want 0", allocs)
	}
}

// TestChunkedCompactMatchesSequential: a launch whose records arrive in
// many small batches must finalize exactly as one batch of the same
// records, histogram cap or not: the fine stage sees a launch's accesses
// once, in order, whatever the flush boundaries, so even the
// structured-values float sums, which depend on addition order, match.
func TestChunkedCompactMatchesSequential(t *testing.T) {
	b := withSweep(testFineBatch(rand.New(rand.NewSource(37)), 3*4096+123), 500)
	n := len(b.Recs)
	for _, fc := range []vpattern.FineConfig{{}, {MaxTrackedValues: 8}} {
		st := newFineStage(Env{Cfg: &Config{FineConfig: fc}})
		whole := st.LaunchBegin("k").(*fineLaunch)
		whole.Analyze(b)
		want := whole.acc.Finalize()
		if !hasPattern(want, vpattern.StructuredValues) {
			t.Fatalf("cap %d: the sweep shows no structured values", fc.MaxTrackedValues)
		}
		for _, chunk := range []int{1, 7, 128, 4096} {
			la := st.LaunchBegin("k").(*fineLaunch)
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				la.Analyze(&Batch{Recs: b.Recs[lo:hi], IDs: b.IDs[lo:hi],
					rangeOff: b.rangeOff[lo:hi], rangeBytes: b.rangeBytes})
			}
			if got := la.acc.Finalize(); !reflect.DeepEqual(want, got) {
				t.Errorf("cap %d, %d-record batches: launch diverged from one batch", fc.MaxTrackedValues, chunk)
			}
		}
	}
}

func hasPattern(reps []vpattern.FineReport, k vpattern.Kind) bool {
	for i := range reps {
		if reps[i].HasPattern(k) {
			return true
		}
	}
	return false
}
