package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/parallel"
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
	// Load ranges spread over the batch, so chunked compaction decodes
	// them in several sub-shards. All but the last decode from the
	// batch's capture buffer.
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

func newTestFineStage() *fineStage {
	return newFineStage(Env{Cfg: &Config{}})
}

// TestFineCompactAllocsFree: with the shard pool warmed, one
// compact-absorb round trip over a batch must not allocate — the
// engine-side half of the zero-alloc access path — and neither must the
// zero-worker pipeline's submit, which adds a pooled batch with captured
// load ranges straight into the launch state.
func TestFineCompactAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates around sync.Pool")
	}
	st := newTestFineStage()
	la := st.LaunchBegin("k").(*fineLaunch)
	b := testFineBatch(rand.New(rand.NewSource(31)), 2048)
	round := func() { la.Absorb(la.Compact(b)) }
	round() // warm the pooled shard and the master accumulator
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("fine compact+absorb allocated %.1f times per warmed batch, want 0", allocs)
	}

	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true})
	defer p.Detach()
	base, err := rt.Malloc(1<<17, "x")
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]gpu.Access(nil), b.Recs...)
	for i := range recs {
		recs[i].Addr += uint64(base)
	}
	ls := &launchState{stages: []LaunchAnalysis{p.stages[0].LaunchBegin("k")}}
	if _, ok := ls.stages[0].(inlineAnalysis); !ok {
		t.Fatal("fine launch does not take the inline path")
	}
	pl := p.newPipeline(ls, 0, 1)
	submit := func() {
		sb := p.newBatch(recs)
		sb.captureRangeLoads(rt.Device().Mem)
		pl.submit(sb)
	}
	submit() // warm the batch pool, the launch accumulator and its shard
	if allocs := testing.AllocsPerRun(20, submit); allocs != 0 {
		t.Fatalf("inline submit allocated %.1f times per warmed batch, want 0", allocs)
	}
}

// TestChunkedCompactMatchesSequential: a large Yield batch compacted
// through concurrent record-range sub-shards must finalize identically to
// the sequential walk of the same records. Run under -race this also
// exercises the sub-shard helpers and the shard pool concurrently —
// including two launches chunk-compacting at once.
func TestChunkedCompactMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 3*fineChunkRecords + 123
	b := testFineBatch(rng, n)

	seqStage := newTestFineStage()
	seqLa := seqStage.LaunchBegin("k").(*fineLaunch)
	seqLa.Absorb(seqLa.Compact(b))
	want := seqLa.acc.Finalize()

	chunked := newTestFineStage()
	// A private wide scheduler so chunk helpers exist even on one CPU.
	chunked.chunks = parallel.NewPoolOn(parallel.NewScheduler(4), 4)
	b.Yield = true
	defer func() { b.Yield = false }()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			la := chunked.LaunchBegin("k").(*fineLaunch)
			for round := 0; round < 3; round++ { // reuse pooled shards across rounds
				la.acc.Reset()
				la.Absorb(la.Compact(b))
				got := la.acc.Finalize()
				if !reflect.DeepEqual(want, got) {
					t.Errorf("round %d: chunked compact diverged from sequential", round)
					return
				}
			}
		}()
	}
	wg.Wait()
}
