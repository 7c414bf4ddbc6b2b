package interval

import (
	"math/rand"
	"testing"
	"testing/quick"

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
