package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"valueexpert/gpu"
)

func eq(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMergeSequentialBasics(t *testing.T) {
	cases := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"empty", nil, nil},
		{"single", []Interval{{0, 4}}, []Interval{{0, 4}}},
		{"overlap", []Interval{{0, 8}, {4, 12}}, []Interval{{0, 12}}},
		{"adjacent", []Interval{{0, 4}, {4, 8}}, []Interval{{0, 8}}},
		{"disjoint", []Interval{{8, 12}, {0, 4}}, []Interval{{0, 4}, {8, 12}}},
		{"contained", []Interval{{0, 100}, {10, 20}}, []Interval{{0, 100}}},
		{"duplicate", []Interval{{4, 8}, {4, 8}}, []Interval{{4, 8}}},
		{"chain", []Interval{{0, 4}, {8, 12}, {4, 8}}, []Interval{{0, 12}}},
	}
	for _, c := range cases {
		if got := MergeSequential(c.in); !eq(got, c.want) {
			t.Errorf("%s: MergeSequential = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMergeSequentialDoesNotMutateInput(t *testing.T) {
	in := []Interval{{8, 12}, {0, 4}}
	MergeSequential(in)
	if in[0] != (Interval{8, 12}) {
		t.Fatal("input mutated")
	}
}

func randomIntervals(rng *rand.Rand, n int, span uint64) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		s := rng.Uint64() % span
		l := rng.Uint64()%64 + 1
		ivs[i] = Interval{Start: s, End: s + l}
	}
	return ivs
}

// Property: the parallel merge (Figure 4) produces exactly the sequential
// merge's result on any input — the core correctness claim of §6.1.
func TestParallelMatchesSequential(t *testing.T) {
	m := NewMerger(0)
	f := func(starts []uint32, lens []uint16, workers uint8) bool {
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		ivs := make([]Interval, n)
		for i := 0; i < n; i++ {
			ivs[i] = Interval{Start: uint64(starts[i]), End: uint64(starts[i]) + uint64(lens[i]%256) + 1}
		}
		mm := NewMerger(int(workers%8) + 1)
		_ = m
		return eq(mm.MergeParallel(ivs), MergeSequential(ivs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMergeLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ivs := randomIntervals(rng, 100_000, 1<<22)
	m := NewMerger(0)
	if !eq(m.MergeParallel(ivs), MergeSequential(ivs)) {
		t.Fatal("parallel merge diverges from sequential on large input")
	}
}

func TestParallelMergeEmptyAndSingle(t *testing.T) {
	m := NewMerger(4)
	if got := m.MergeParallel(nil); got != nil {
		t.Fatalf("empty merge = %v", got)
	}
	if got := m.MergeParallel([]Interval{{10, 20}}); !eq(got, []Interval{{10, 20}}) {
		t.Fatalf("single merge = %v", got)
	}
}

func TestMergeInvariants(t *testing.T) {
	// Result intervals are sorted, disjoint, non-adjacent, and cover
	// exactly the union of inputs.
	rng := rand.New(rand.NewSource(3))
	m := NewMerger(0)
	for trial := 0; trial < 20; trial++ {
		ivs := randomIntervals(rng, 500, 1<<14)
		got := m.MergeParallel(ivs)
		for i := 1; i < len(got); i++ {
			if got[i].Start <= got[i-1].End {
				t.Fatalf("intervals %v and %v not separated", got[i-1], got[i])
			}
		}
		covered := make(map[uint64]bool)
		for _, iv := range got {
			if !iv.Valid() {
				t.Fatalf("invalid interval %v", iv)
			}
			for a := iv.Start; a < iv.End; a++ {
				covered[a] = true
			}
		}
		for _, iv := range ivs {
			for a := iv.Start; a < iv.End; a++ {
				if !covered[a] {
					t.Fatalf("address %#x in input not covered by merge", a)
				}
			}
		}
	}
}

func TestFromAccessAndTotalBytes(t *testing.T) {
	iv := FromAccess(gpu.Access{Addr: 100, Size: 8})
	if iv != (Interval{100, 108}) {
		t.Fatalf("FromAccess = %v", iv)
	}
	if TotalBytes([]Interval{{0, 4}, {8, 24}}) != 20 {
		t.Fatal("TotalBytes wrong")
	}
	if !iv.Contains(107) || iv.Contains(108) {
		t.Fatal("Contains wrong")
	}
	if !(Interval{0, 4}).Overlaps(Interval{4, 8}) {
		t.Fatal("adjacent should overlap for merging purposes")
	}
	if iv.String() == "" || !iv.Valid() || (Interval{5, 5}).Valid() {
		t.Fatal("String/Valid wrong")
	}
}

func TestCompactWarp(t *testing.T) {
	// A coalesced warp: 32 consecutive 4-byte accesses collapse to one
	// interval.
	var accs []gpu.Access
	for i := 0; i < 32; i++ {
		accs = append(accs, gpu.Access{Addr: uint64(1000 + 4*i), Size: 4})
	}
	got := CompactWarp(accs)
	if !eq(got, []Interval{{1000, 1128}}) {
		t.Fatalf("coalesced warp compaction = %v", got)
	}
	// A strided warp stays fragmented.
	accs = accs[:0]
	for i := 0; i < 4; i++ {
		accs = append(accs, gpu.Access{Addr: uint64(64 * i), Size: 4})
	}
	if got := CompactWarp(accs); len(got) != 4 {
		t.Fatalf("strided warp compaction = %v, want 4 intervals", got)
	}
	if CompactWarp(nil) != nil {
		t.Fatal("empty warp should compact to nil")
	}
}

func TestPlanCopyStrategies(t *testing.T) {
	obj := Interval{1000, 2000}
	merged := []Interval{{1000, 1010}, {1500, 1510}, {1980, 1990}}
	dense := []Interval{{1000, 1400}, {1410, 1800}}
	var many []Interval
	for i := 0; i < 200; i++ {
		s := uint64(1000 + 5*i)
		many = append(many, Interval{s, s + 1})
	}
	for _, c := range []struct {
		name     string
		strategy CopyStrategy
		merged   []Interval
		want     []Interval
		resolved CopyStrategy
	}{
		{"direct", DirectCopy, merged, []Interval{obj}, DirectCopy},
		{"min-max", MinMaxCopy, merged, []Interval{{1000, 1990}}, MinMaxCopy},
		{"segment", SegmentCopy, merged, merged, SegmentCopy},
		// Sparse few intervals: adaptive picks segment.
		{"adaptive sparse", AdaptiveCopy, merged, merged, SegmentCopy},
		// Dense: adaptive picks min-max.
		{"adaptive dense", AdaptiveCopy, dense, []Interval{{1000, 1800}}, MinMaxCopy},
		// Many intervals: adaptive picks min-max.
		{"adaptive many", AdaptiveCopy, many, []Interval{{1000, 1996}}, MinMaxCopy},
	} {
		got, resolved := PlanCopy(c.strategy, obj, c.merged)
		if !eq(got, c.want) || resolved != c.resolved {
			t.Errorf("%s = %v under %v, want %v under %v", c.name, got, resolved, c.want, c.resolved)
		}
	}
}

// plan is PlanCopy's plan alone.
func plan(strategy CopyStrategy, obj Interval, merged []Interval) []Interval {
	p, _ := PlanCopy(strategy, obj, merged)
	return p
}

func TestPlanCopyClipsToObject(t *testing.T) {
	obj := Interval{1000, 2000}
	merged := []Interval{{900, 1100}, {1900, 2100}, {5000, 6000}}
	got := plan(SegmentCopy, obj, merged)
	want := []Interval{{1000, 1100}, {1900, 2000}}
	if !eq(got, want) {
		t.Fatalf("clipped plan = %v, want %v", got, want)
	}
	if got := plan(MinMaxCopy, obj, []Interval{{5000, 6000}}); got != nil {
		t.Fatalf("fully-outside plan = %v, want nil", got)
	}
	if got := plan(AdaptiveCopy, obj, nil); got != nil {
		t.Fatalf("empty adaptive plan = %v, want nil", got)
	}
}

// TestChunks: chunks cover exactly the input, in order, and every chunk
// but the last holds exactly maxBytes, so a small plan is one chunk.
func TestChunks(t *testing.T) {
	if got := Chunks(nil, 8); got != nil {
		t.Fatalf("Chunks(nil) = %v, want nil", got)
	}
	small := []Interval{{0, 3}, {10, 12}, {20, 21}}
	if got := Chunks(small, 64); len(got) != 1 || !eq(got[0], small) {
		t.Fatalf("small plan = %v, want one chunk %v", got, small)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var ivs []Interval
		n := r.Intn(30)
		for at := uint64(r.Intn(50)); len(ivs) < n; at += uint64(1 + r.Intn(50)) {
			end := at + 1 + uint64(r.Intn(200))
			ivs = append(ivs, Interval{at, end})
			at = end
		}
		maxBytes := uint64(1 + r.Intn(100))
		chunks := Chunks(ivs, maxBytes)
		var flat []Interval
		for i, c := range chunks {
			if n := TotalBytes(c); n > maxBytes || (i < len(chunks)-1 && n != maxBytes) || n == 0 {
				t.Fatalf("trial %d: chunk %d of %d holds %d bytes, max %d", trial, i, len(chunks), n, maxBytes)
			}
			flat = append(flat, c...)
		}
		if !eq(MergeSequential(flat), MergeSequential(ivs)) || TotalBytes(flat) != TotalBytes(ivs) {
			t.Fatalf("trial %d: chunks %v do not cover %v", trial, chunks, ivs)
		}
	}
}

func TestCopyCostPrefersRightStrategy(t *testing.T) {
	model := CopyCostModel{PerCall: 10 * time.Microsecond, Bandwidth: 10e9}
	obj := Interval{0, 1 << 20}
	// Sparse case: a handful of small accesses; segment must beat direct.
	sparse := []Interval{{0, 64}, {1 << 19, 1<<19 + 64}}
	if model.Cost(plan(SegmentCopy, obj, sparse)) >= model.Cost(plan(DirectCopy, obj, sparse)) {
		t.Fatal("segment copy should win on sparse accesses")
	}
	// Many-fragment case: min-max must beat segment.
	var many []Interval
	for i := 0; i < 4096; i++ {
		s := uint64(256 * i)
		many = append(many, Interval{s, s + 8})
	}
	if model.Cost(plan(MinMaxCopy, obj, many)) >= model.Cost(plan(SegmentCopy, obj, many)) {
		t.Fatal("min-max copy should win on fragmented accesses")
	}
	// Adaptive is never worse than the better of segment and min-max on
	// these shapes.
	for _, merged := range [][]Interval{sparse, many} {
		ad := model.Cost(plan(AdaptiveCopy, obj, merged))
		seg := model.Cost(plan(SegmentCopy, obj, merged))
		mm := model.Cost(plan(MinMaxCopy, obj, merged))
		best := seg
		if mm < best {
			best = mm
		}
		if ad > best {
			t.Fatalf("adaptive cost %v exceeds best fixed strategy %v", ad, best)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[CopyStrategy]string{
		DirectCopy: "direct", MinMaxCopy: "min-max", SegmentCopy: "segment",
		AdaptiveCopy: "adaptive", CopyStrategy(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
