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
			got := h.add(v, n, cap)
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

// TestChunkedAddMatchesSequential: building a shard from record-range
// sub-shards (AddAssoc + FoldAssoc in range order, then one sequential
// ObserveOrderSensitive pass) must finalize identically to plain
// sequential Adds — the invariant intra-batch chunked compaction rests on.
func TestChunkedAddMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := FineConfig{MaxTrackedValues: 24} // force saturation into play
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(400)
		accs, objOf := randStream(rng, n)
		want := finalizeSequential(cfg, accs, objOf)

		master := NewFineAccumulator(cfg)
		shard := master.NewShard()
		chunk := 1 + rng.Intn(100)
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			sub := shard.NewShard()
			for i := lo; i < hi; i++ {
				sub.AddAssoc(objOf(i), accs[i])
			}
			shard.FoldAssoc(sub)
		}
		for i, a := range accs {
			shard.ObserveOrderSensitive(objOf(i), a)
		}
		master.Merge(shard)
		if got := master.Finalize(); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d chunk %d: chunked shard diverged\nwant %+v\ngot  %+v", trial, chunk, want, got)
		}
	}
}

// TestCombineMatchesSeparateMerges: pre-folding adjacent shards with
// Combine and merging the combined partial must equal merging every shard
// separately in flush order — including the deferred replay of the
// order-sensitive detectors riding in pending.
func TestCombineMatchesSeparateMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := FineConfig{MaxTrackedValues: 24}
	for trial := 0; trial < 20; trial++ {
		nShards := 2 + rng.Intn(4)
		perShard := 100 + rng.Intn(200)
		proto := NewFineAccumulator(cfg)
		shards := make([]*FineAccumulator, nShards)
		var all []gpu.Access
		var allObj []int
		for s := range shards {
			shards[s] = proto.NewShard()
			accs, objOf := randStream(rng, perShard)
			for i, a := range accs {
				shards[s].Add(objOf(i), a)
				all = append(all, a)
				allObj = append(allObj, objOf(i))
			}
		}
		want := finalizeSequential(cfg, all, func(i int) int { return allObj[i] })

		// Pairwise combine in flush order (odd trailing shard stays solo),
		// as the pipeline's pre-combiner does, then merge the units in order.
		master := NewFineAccumulator(cfg)
		for s := 0; s < nShards; s += 2 {
			unit := shards[s]
			if s+1 < nShards {
				unit.Combine(shards[s+1])
			}
			master.Merge(unit)
			if s+1 < nShards && len(unit.TakePending()) != 1 {
				t.Fatalf("trial %d: combined shard did not carry its partner in pending", trial)
			}
		}
		if got := master.Finalize(); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: combined merge diverged\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

// TestCombineChainsPending: combining into an already-combined shard must
// keep every deferred shard, in flush order.
func TestCombineChainsPending(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := FineConfig{}
	proto := NewFineAccumulator(cfg)
	shards := make([]*FineAccumulator, 4)
	var all []gpu.Access
	var allObj []int
	for s := range shards {
		shards[s] = proto.NewShard()
		accs, objOf := randStream(rng, 150)
		for i, a := range accs {
			shards[s].Add(objOf(i), a)
			all = append(all, a)
			allObj = append(allObj, objOf(i))
		}
	}
	want := finalizeSequential(cfg, all, func(i int) int { return allObj[i] })

	shards[0].Combine(shards[1])
	shards[2].Combine(shards[3])
	shards[0].Combine(shards[2]) // chained: 2's pending (3) must transfer
	master := NewFineAccumulator(cfg)
	master.Merge(shards[0])
	if got := master.Finalize(); !reflect.DeepEqual(want, got) {
		t.Fatalf("chained combine diverged\nwant %+v\ngot  %+v", want, got)
	}
	if n := len(shards[0].TakePending()); n != 3 {
		t.Fatalf("pending after chained combine = %d shards, want 3", n)
	}
}

// TestShardReuseMatchesFresh: a shard Reset in place and refilled must be
// indistinguishable from a freshly allocated one — the property the
// engine's shard pool depends on.
func TestShardReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := FineConfig{MaxTrackedValues: 32}
	proto := NewFineAccumulator(cfg)
	reused := proto.NewShard()
	for round := 0; round < 5; round++ {
		accs, objOf := randStream(rng, 300)
		want := finalizeSequential(cfg, accs, objOf)

		reused.Reset()
		for i, a := range accs {
			reused.Add(objOf(i), a)
		}
		master := NewFineAccumulator(cfg)
		master.Merge(reused)
		if got := master.Finalize(); !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: reused shard diverged\nwant %+v\ngot  %+v", round, want, got)
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
// histogram, every builtin detector — must not allocate in the steady
// state, including the in-place Reset between batches.
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
}
