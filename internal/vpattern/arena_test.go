package vpattern

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"valueexpert/gpu"
)

// refHist is the map-based reference the arena histogram replaced: a
// count map plus an explicit insertion-order list, with the same
// saturation contract (add reports whether v is tracked).
type refHist struct {
	counts map[Value]uint64
	order  []Value
}

func newRefHist() *refHist { return &refHist{counts: map[Value]uint64{}} }

func (r *refHist) add(v Value, n uint64, maxTracked int) bool {
	if _, ok := r.counts[v]; ok {
		r.counts[v] += n
		return true
	}
	if len(r.order) >= maxTracked {
		return false
	}
	r.counts[v] = n
	r.order = append(r.order, v)
	return true
}

func (r *refHist) entries() []ValueCount {
	out := make([]ValueCount, 0, len(r.order))
	for _, v := range r.order {
		out = append(out, ValueCount{Value: v, Count: r.counts[v]})
	}
	return out
}

func randValue(rng *rand.Rand, pool int) Value {
	raw := uint64(rng.Intn(pool))
	switch rng.Intn(4) {
	case 0:
		return Value{Raw: gpu.RawFromFloat32(float32(raw) * 0.25), Size: 4, Kind: gpu.KindFloat}
	case 1:
		return Value{Raw: gpu.RawFromFloat64(float64(raw) * 0.25), Size: 8, Kind: gpu.KindFloat}
	case 2:
		return Value{Raw: raw, Size: 4, Kind: gpu.KindInt}
	default:
		return Value{Raw: raw, Size: 8, Kind: gpu.KindUint}
	}
}

// TestArenaHistMatchesMapReference: the open-addressing arena histogram
// must match the map+order reference over random add schedules — the
// same entries, in the same first-occurrence order, with the same
// saturation refusals.
func TestArenaHistMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cap := 1 + rng.Intn(64)
		pool := 1 + rng.Intn(96)
		var h valueHist
		ref := newRefHist()
		if trial%3 == 0 {
			h.reset() // resets interleave with fresh use
		}
		for step := 0; step < 400; step++ {
			v := randValue(rng, pool)
			n := uint64(1 + rng.Intn(3))
			got := h.add(v, n, cap) >= 0
			want := ref.add(v, n, cap)
			if got != want {
				t.Fatalf("trial %d step %d: add(%+v) tracked=%v, reference %v", trial, step, v, got, want)
			}
		}
		if !reflect.DeepEqual(h.entries, ref.entries()) {
			t.Fatalf("trial %d: entries diverged\narena %+v\nref   %+v", trial, h.entries, ref.entries())
		}
	}
}

func randAccess(rng *rand.Rand) gpu.Access {
	v := randValue(rng, 40)
	return gpu.Access{
		Addr: uint64(rng.Intn(1<<12)) * uint64(v.Size),
		Size: v.Size, Kind: v.Kind, Raw: v.Raw,
		Store: rng.Intn(2) == 0,
	}
}

func randStream(rng *rand.Rand, n int) ([]gpu.Access, func(i int) int) {
	accs := make([]gpu.Access, n)
	objs := make([]int, n)
	for i := range accs {
		accs[i] = randAccess(rng)
		objs[i] = rng.Intn(5)
	}
	return accs, func(i int) int { return objs[i] }
}

func finalizeSequential(cfg FineConfig, accs []gpu.Access, objOf func(i int) int) []FineReport {
	fa := NewFineAccumulator(cfg)
	for i, a := range accs {
		fa.Add(objOf(i), a)
	}
	return fa.Finalize()
}

// TestShardReuseMatchesFresh: an accumulator Reset in place and refilled
// must be indistinguishable from a freshly allocated one, for every
// round of reuse.
func TestShardReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := FineConfig{MaxTrackedValues: 32}
	reused := NewFineAccumulator(cfg)
	for round := 0; round < 5; round++ {
		accs, objOf := randStream(rng, 300)
		want := finalizeSequential(cfg, accs, objOf)

		reused.Reset()
		for i, a := range accs {
			reused.Add(objOf(i), a)
		}
		if got := reused.Finalize(); !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: reused accumulator diverged\nwant %+v\ngot  %+v", round, want, got)
		}
	}
}

// TestRankMatchesFullSort: the bounded top-8 selection must keep exactly
// the entries — in exactly the order — a full sort truncated to 8 would.
func TestRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		var sh ObjectShared
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			v := randValue(rng, 12) // small pool: count ties are common
			sh.exact.add(v, uint64(1+rng.Intn(4)), math.MaxInt)
		}
		ref := append([]ValueCount(nil), sh.exact.entries...)
		sort.Slice(ref, func(i, j int) bool { return rankBefore(ref[i], ref[j]) })
		if len(ref) > 8 {
			ref = ref[:8]
		}
		if len(ref) == 0 {
			ref = nil
		}
		sh.rank()
		got := sh.top
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("trial %d: bounded rank diverged\nwant %+v\ngot  %+v", trial, ref, got)
		}
	}
}

// TestFineAddAllocsFree: the fine access path — shared context, exact
// histogram and its hint, every builtin detector — must not allocate in
// the steady state, for scalars and for decoded range records alike,
// including the in-place Reset between batches.
func TestFineAddAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	accs, objOf := randStream(rng, 512)
	fa := NewFineAccumulator(FineConfig{})
	run := func() {
		fa.Reset()
		for i, a := range accs {
			fa.Add(objOf(i), a)
		}
	}
	run() // warm the arenas, tables, and slot indexes
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("FineAccumulator.Add allocated %.1f times per warmed batch, want 0", allocs)
	}

	// Range records: 64 captured loads and fills of 2–64 elements each,
	// decoded and ingested whole.
	recs := make([]rec, 64)
	for i := range recs {
		a := randAccess(rng)
		vs := make([]uint64, 2+rng.Intn(63))
		for e := range vs {
			vs[e] = uint64(rng.Intn(40))
		}
		recs[i] = loadRange(rng.Intn(5), a.Addr, a.Size, a.Kind, vs)
		if a.Store {
			recs[i].a.Store, recs[i].a.Raw, recs[i].vals = true, vs[0], nil
		}
	}
	runRanges := func() {
		fa.Reset()
		ingestBulk(fa, recs)
	}
	runRanges()
	if allocs := testing.AllocsPerRun(20, runRanges); allocs != 0 {
		t.Fatalf("FineAccumulator.DecodeRange+AddRange allocated %.1f times per warmed batch, want 0", allocs)
	}
}

// BenchmarkExactHistogram times the shared context's exact histogram
// alone (no detectors) per ingested element, over two stream shapes:
//   - window: 64-element range loads sliding one element at a time over
//     4,096 float32 elements of distinct values, so each element away
//     from the ends is loaded 64 times (a convolution's input reuse);
//   - distinct: 4,096 single-element loads of distinct values against a
//     256-value cap, so nearly every add misses and overflows.
func BenchmarkExactHistogram(b *testing.B) {
	const elems, width = 4096, 64
	vals := make([]uint64, elems)
	for e := range vals {
		vals[e] = gpu.RawFromFloat32(float32(e) * 0.5)
	}
	b.Run("window", func(b *testing.B) {
		fa := NewFineAccumulatorWith(FineConfig{}, nil)
		a := gpu.Access{Size: 4, Kind: gpu.KindFloat, Count: width}
		run := func() int {
			fa.Reset()
			for s := 0; s+width <= elems; s++ {
				a.Addr = uint64(4 * s)
				fa.AddRange(1, a, vals[s:s+width])
			}
			return (elems - width + 1) * width
		}
		benchPerElement(b, run)
	})
	b.Run("distinct", func(b *testing.B) {
		fa := NewFineAccumulatorWith(FineConfig{MaxTrackedValues: 256}, nil)
		a := gpu.Access{Size: 4, Kind: gpu.KindUint}
		run := func() int {
			fa.Reset()
			for e := 0; e < elems; e++ {
				a.Addr, a.Raw = uint64(4*e), uint64(e)
				fa.Add(1, a)
			}
			return elems
		}
		benchPerElement(b, run)
	})
}

// benchPerElement runs one warm-up round of run, then b.N timed rounds,
// reporting nanoseconds per element ingested.
func benchPerElement(b *testing.B, run func() int) {
	run()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/elem")
}
