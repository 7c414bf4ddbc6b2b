package interval

import (
	"testing"
	"testing/quick"
)

func TestUnionBasics(t *testing.T) {
	a := []Interval{{0, 4}, {10, 20}}
	b := []Interval{{4, 6}, {15, 25}, {30, 40}}
	got := Union(a, b)
	want := []Interval{{0, 6}, {10, 25}, {30, 40}}
	if !eq(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if !eq(Union(nil, a), a) || !eq(Union(a, nil), a) {
		t.Fatal("union with empty")
	}
}

func TestIntersectBasics(t *testing.T) {
	a := []Interval{{0, 10}, {20, 30}}
	b := []Interval{{5, 25}}
	got := Intersect(a, b)
	want := []Interval{{5, 10}, {20, 25}}
	if !eq(got, want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if Intersect(a, nil) != nil || Intersect(nil, b) != nil {
		t.Fatal("intersect with empty")
	}
	if got := Intersect([]Interval{{0, 4}}, []Interval{{4, 8}}); got != nil {
		t.Fatalf("touching intervals intersect = %v", got)
	}
}

// Property: membership in Union/Intersect matches boolean algebra on a
// sampled domain, and Union equals MergeSequential of both lists.
func TestSetOpsProperty(t *testing.T) {
	mk := func(raw []uint8) []Interval {
		var ivs []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			s, l := uint64(raw[i]), uint64(raw[i+1]%16)+1
			ivs = append(ivs, Interval{s, s + l})
		}
		return MergeSequential(ivs)
	}
	contains := func(ivs []Interval, x uint64) bool {
		for _, iv := range ivs {
			if iv.Contains(x) {
				return true
			}
		}
		return false
	}
	f := func(ra, rb []uint8) bool {
		a, b := mk(ra), mk(rb)
		u, n := Union(a, b), Intersect(a, b)
		if !eq(u, MergeSequential(append(append([]Interval(nil), a...), b...))) {
			return false // the linear sweep must match the sort-and-sweep merge
		}
		for x := uint64(0); x < 280; x += 3 {
			inA, inB := contains(a, x), contains(b, x)
			if contains(u, x) != (inA || inB) {
				return false
			}
			if contains(n, x) != (inA && inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
