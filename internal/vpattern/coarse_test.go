package vpattern

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"valueexpert/internal/interval"
	"valueexpert/internal/parallel"
)

// diffSnapshots is the byte-at-a-time reference for Refresh's diff: it
// compares the before/after snapshots of a data object over the written
// intervals (addresses relative to objBase), ignoring out-of-range
// portions.
func diffSnapshots(before, after []byte, written []interval.Interval, objBase uint64) DiffResult {
	var d DiffResult
	n := uint64(min(len(before), len(after)))
	for _, iv := range written {
		if iv.End <= objBase {
			continue
		}
		s := uint64(0)
		if iv.Start > objBase {
			s = iv.Start - objBase
		}
		e := min(iv.End-objBase, n)
		for i := s; i < e; i++ {
			d.WrittenBytes++
			if before[i] == after[i] {
				d.UnchangedBytes++
			}
		}
	}
	return d
}

// refreshDiff runs Refresh over a copy of before with the written
// intervals as both plan and diffable, returning the diff.
func refreshDiff(before, after []byte, written []interval.Interval, objBase uint64) DiffResult {
	d, _ := Refresh(parallel.NewPool(2), slices.Clone(before), after, objBase, written, written)
	return d
}

func TestDiffSnapshotsBasic(t *testing.T) {
	before := []byte{0, 0, 0, 0, 1, 2, 3, 4}
	after := []byte{0, 0, 0, 0, 9, 9, 3, 4}
	// Whole object written.
	d := refreshDiff(before, after, []interval.Interval{{Start: 100, End: 108}}, 100)
	if d.WrittenBytes != 8 || d.UnchangedBytes != 6 {
		t.Fatalf("diff = %+v", d)
	}
	if !d.Redundant() {
		t.Fatalf("75%% unchanged should exceed the 33%% threshold")
	}
	m := d.Match()
	if m.Kind != RedundantValues || m.Fraction != 0.75 || m.Detail == "" {
		t.Fatalf("match = %+v", m)
	}
}

func TestDiffSnapshotsPartialIntervals(t *testing.T) {
	before := make([]byte, 16)
	after := make([]byte, 16)
	for i := range after {
		after[i] = byte(i)
	}
	after[2] = 0 // one written byte unchanged
	d := refreshDiff(before, after, []interval.Interval{{Start: 102, End: 106}}, 100)
	if d.WrittenBytes != 4 || d.UnchangedBytes != 1 {
		t.Fatalf("diff = %+v", d)
	}
	if d.Redundant() {
		t.Fatal("25% unchanged should be below threshold")
	}
}

func TestDiffSnapshotsClipsOutOfRange(t *testing.T) {
	before := []byte{1, 2, 3, 4}
	after := []byte{1, 2, 3, 4}
	ivs := []interval.Interval{
		{Start: 10, End: 20},   // fully before
		{Start: 90, End: 102},  // straddles the start
		{Start: 103, End: 120}, // straddles the end
	}
	d := refreshDiff(before, after, ivs, 100)
	if d.WrittenBytes != 3 || d.UnchangedBytes != 3 {
		t.Fatalf("diff = %+v", d)
	}
}

func TestDiffSnapshotsEmpty(t *testing.T) {
	d := refreshDiff(nil, nil, nil, 0)
	if d.WrittenBytes != 0 || d.Redundant() || d.Fraction() != 0 {
		t.Fatalf("empty diff = %+v", d)
	}
}

// Property: UnchangedBytes <= WrittenBytes <= total interval bytes, and
// Refresh's diff equals the byte loop's.
func TestDiffSnapshotsBounds(t *testing.T) {
	f := func(before, after []byte, starts []uint8, lens []uint8) bool {
		var ivs []interval.Interval
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		var total uint64
		for i := 0; i < n; i++ {
			iv := interval.Interval{Start: uint64(starts[i]), End: uint64(starts[i]) + uint64(lens[i])}
			if iv.Valid() {
				ivs = append(ivs, iv)
				total += iv.Len()
			}
		}
		ivs = interval.MergeSequential(ivs)
		d := refreshDiff(before, after, ivs, 0)
		return d.UnchangedBytes <= d.WrittenBytes && d.WrittenBytes <= total &&
			d == diffSnapshots(before, after, ivs, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateTrackerGroups(t *testing.T) {
	tr := NewDuplicateTracker()
	zeros := make([]byte, 64)
	ones := make([]byte, 64)
	for i := range ones {
		ones[i] = 1
	}
	tr.Observe(1, zeros)
	tr.Observe(2, zeros) // duplicate of 1 — the Darknet l.output_gpu / l.x_gpu case
	tr.Observe(3, ones)
	tr.Observe(4, zeros)

	groups := tr.Groups()
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0][0] != 1 || groups[0][2] != 4 {
		t.Fatalf("group members = %v", groups[0])
	}
	if dups := tr.DuplicateOf(2); len(dups) != 2 || dups[0] != 1 || dups[1] != 4 {
		t.Fatalf("DuplicateOf(2) = %v", dups)
	}
	if dups := tr.DuplicateOf(3); len(dups) != 0 {
		t.Fatalf("DuplicateOf(3) = %v", dups)
	}
	if dups := tr.DuplicateOf(99); dups != nil {
		t.Fatalf("DuplicateOf(unknown) = %v", dups)
	}
}

func TestDuplicateTrackerUpdates(t *testing.T) {
	tr := NewDuplicateTracker()
	zeros := make([]byte, 16)
	tr.Observe(1, zeros)
	tr.Observe(2, zeros)
	if len(tr.Groups()) != 1 {
		t.Fatal("expected one group")
	}
	// Object 2 diverges: the *current* group dissolves, but the history
	// remembers it ("at any GPU API", Def 3.2).
	tr.Observe(2, []byte{1, 2, 3})
	if g := tr.Groups(); len(g) != 0 {
		t.Fatalf("groups after divergence = %v", g)
	}
	if g := tr.EverGroups(); len(g) != 1 || len(g[0]) != 2 {
		t.Fatalf("ever groups = %v", g)
	}
	// Re-observing the same content is a no-op.
	tr.Observe(1, zeros)
	tr.Observe(1, zeros)
	if len(tr.DuplicateOf(1)) != 0 {
		t.Fatal("self-duplicate appeared")
	}
	// Empty snapshots ignored.
	tr.Observe(5, nil)
	if tr.Tracks(5) {
		t.Fatal("empty snapshot tracked")
	}
}

func TestDuplicateGroupOrdering(t *testing.T) {
	tr := NewDuplicateTracker()
	a := []byte{1}
	b := []byte{2}
	tr.Observe(10, a)
	tr.Observe(11, a)
	tr.Observe(20, b)
	tr.Observe(21, b)
	tr.Observe(22, b)
	g := tr.Groups()
	if len(g) != 2 || len(g[0]) != 3 || g[0][0] != 20 || len(g[1]) != 2 {
		t.Fatalf("groups = %v (want larger group first)", g)
	}
}

func TestHashSnapshotDistinguishes(t *testing.T) {
	if hashSnapshot([]byte{1}) == hashSnapshot([]byte{2}) {
		t.Fatal("hash collision on trivial inputs")
	}
	if hashSnapshot(nil) != hashSnapshot([]byte{}) {
		t.Fatal("empty hashes differ")
	}
}

// randomIntervals returns sorted, disjoint intervals inside [lo, hi).
func randomIntervals(r *rand.Rand, lo, hi uint64) []interval.Interval {
	var out []interval.Interval
	for at := lo; at < hi; {
		at += uint64(r.Intn(64))
		end := min(at+1+uint64(r.Intn(600)), hi)
		if at >= end {
			break
		}
		out = append(out, interval.Interval{Start: at, End: end})
		at = end + 1
	}
	return out
}

// within returns random sorted, disjoint sub-intervals of ivs.
func within(r *rand.Rand, ivs []interval.Interval) []interval.Interval {
	var out []interval.Interval
	for _, iv := range ivs {
		if r.Intn(4) > 0 {
			out = append(out, randomIntervals(r, iv.Start, iv.End)...)
		}
	}
	return out
}

// FuzzRefresh checks the fused refresh against the byte-loop oracle on
// unaligned objects of 0–1,100 bytes, with plan ⊇ written ⊇ diffable and
// intervals straddling the object bounds.
func FuzzRefresh(f *testing.F) {
	f.Add(uint16(0), uint16(0), int64(1), uint8(0))
	f.Add(uint16(1), uint16(3), int64(2), uint8(1))
	f.Add(uint16(7), uint16(1), int64(3), uint8(2))
	f.Add(uint16(513), uint16(5), int64(4), uint8(50))
	f.Add(uint16(1024), uint16(8), int64(5), uint8(255))
	f.Add(uint16(1100), uint16(13), int64(6), uint8(10))
	f.Add(uint16(1099), uint16(4093), int64(7), uint8(128))
	f.Fuzz(func(t *testing.T, n, base uint16, seed int64, churn uint8) {
		size := int(n) % 1101
		objBase := uint64(base) + 64 // leave room for intervals straddling the start
		r := rand.New(rand.NewSource(seed))
		before := make([]byte, size)
		r.Read(before)
		after := slices.Clone(before)
		for i := range after {
			if r.Intn(256) < int(churn) {
				after[i] = byte(r.Intn(4))
			}
		}
		plan := randomIntervals(r, objBase-32, objBase+uint64(size)+32)
		written := within(r, plan)
		diffable := within(r, written)

		snap := slices.Clone(before)
		d, changed := Refresh(parallel.NewPool(2), snap, after, objBase, plan, diffable)
		if want := diffSnapshots(before, after, diffable, objBase); d != want {
			t.Fatalf("diff = %+v, oracle %+v", d, want)
		}
		inPlan := make([]bool, size)
		for _, iv := range plan {
			for a := max(iv.Start, objBase); a < min(iv.End, objBase+uint64(size)); a++ {
				inPlan[a-objBase] = true
			}
		}
		differed := false
		for i := range snap {
			want := before[i]
			if inPlan[i] {
				want = after[i]
				differed = differed || before[i] != after[i]
			}
			if snap[i] != want {
				t.Fatalf("snapshot byte %d = %d, want %d (in plan %v)", i, snap[i], want, inPlan[i])
			}
		}
		if changed != differed {
			t.Fatalf("changed = %v, want %v", changed, differed)
		}
	})
}

// TestRefreshSplitsAcrossPool covers plans larger than one chunk, as one
// long interval cut into chunks and as hundreds of short ones packed into
// chunks: the pooled result equals the oracle and leaves the snapshot
// equal to the device.
func TestRefreshSplitsAcrossPool(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	before := make([]byte, 5*refreshChunkBytes+77)
	r.Read(before)
	after := slices.Clone(before)
	for i := 0; i < len(after); i += 1 + r.Intn(3000) {
		after[i]++
	}
	base := uint64(1 << 20)
	obj := []interval.Interval{{Start: base, End: base + uint64(len(before))}}
	scattered := randomIntervals(r, base, base+uint64(len(before)))
	for _, plan := range [][]interval.Interval{obj, scattered} {
		diffable := within(r, plan)
		for _, workers := range []int{1, 2, 4} {
			snap := slices.Clone(before)
			d, changed := Refresh(parallel.NewPool(workers), snap, after, base, plan, diffable)
			if want := diffSnapshots(before, after, diffable, base); d != want || !changed {
				t.Fatalf("%d plan intervals, workers %d: diff = %+v changed %v, oracle %+v", len(plan), workers, d, changed, want)
			}
			if d, changed := Refresh(parallel.NewPool(workers), snap, after, base, plan, plan); d.UnchangedBytes != d.WrittenBytes || changed {
				t.Fatalf("%d plan intervals, workers %d: second refresh = %+v changed %v, want all unchanged", len(plan), workers, d, changed)
			}
			for _, iv := range plan {
				if !bytes.Equal(snap[iv.Start-base:iv.End-base], after[iv.Start-base:iv.End-base]) {
					t.Fatalf("%d plan intervals, workers %d: snapshot differs from device over %v", len(plan), workers, iv)
				}
			}
		}
	}
}

// TestDuplicateTrackerFree: a freed object keeps its group membership
// until Evict but releases its snapshot; a group whose every member is
// freed still takes in a later object of the same contents.
func TestDuplicateTrackerFree(t *testing.T) {
	held := func(tr *DuplicateTracker) map[int][]byte {
		out := map[int][]byte{}
		tr.Each(func(id int, _ uint64, b []byte) { out[id] = b })
		return out
	}
	zeros := func() []byte { return make([]byte, 32) }
	tr := NewDuplicateTracker()
	s1, s2 := zeros(), zeros()
	tr.Observe(1, s1)
	tr.Observe(2, s2)
	tr.Free(1)
	if g := tr.Groups(); !slices.EqualFunc(g, [][]int{{1, 2}}, slices.Equal[[]int]) {
		t.Fatalf("groups after freeing 1 = %v, want [[1 2]]", g)
	}
	if h := held(tr); &h[1][0] != &s2[0] || &h[2][0] != &s2[0] {
		t.Fatal("group contents should be the live member's snapshot only")
	}
	tr.Free(2)
	if h := held(tr); h[1] != nil || h[2] != nil || len(h) != 2 {
		t.Fatalf("after freeing every member, held = %v, want both members with no bytes", h)
	}
	tr.Observe(3, zeros())
	if g := tr.EverGroups(); !slices.EqualFunc(g, [][]int{{1, 2, 3}}, slices.Equal[[]int]) {
		t.Fatalf("ever groups = %v, want [[1 2 3]]", g)
	}
	tr.Free(99) // untracked: no-op
	tr.Evict(map[int]bool{1: true, 2: true})
	if h := held(tr); len(h) != 1 || h[3] == nil {
		t.Fatalf("after evicting 1 and 2, held = %v, want only 3 with its bytes", h)
	}
}

// TestDuplicateGroupsExactUnderHashCollision forces every snapshot to
// one hash: groups, eviction and the cross-device partition must still
// separate distinct contents.
func TestDuplicateGroupsExactUnderHashCollision(t *testing.T) {
	saved := hashSnapshot
	hashSnapshot = func([]byte) uint64 { return 42 }
	t.Cleanup(func() { hashSnapshot = saved })

	a, b := []byte{1, 1, 1, 1}, []byte{2, 2, 2, 2}
	snaps := map[int][]byte{1: slices.Clone(a), 2: slices.Clone(a), 3: slices.Clone(b), 4: slices.Clone(b)}
	tr := NewDuplicateTracker()
	for id := 1; id <= 4; id++ {
		tr.Observe(id, snaps[id])
	}
	if g := tr.Groups(); !slices.EqualFunc(g, [][]int{{1, 2}, {3, 4}}, slices.Equal[[]int]) {
		t.Fatalf("groups = %v, want [[1 2] [3 4]]", g)
	}
	if g := tr.EverGroups(); len(g) != 2 {
		t.Fatalf("ever groups = %v, want two pairs", g)
	}
	if d := tr.DuplicateOf(1); !slices.Equal(d, []int{2}) {
		t.Fatalf("DuplicateOf(1) = %v", d)
	}
	tr.Each(func(id int, _ uint64, b []byte) {
		if id == 3 && &b[0] != &snaps[3][0] && &b[0] != &snaps[4][0] {
			t.Fatal("tracker copied the snapshot instead of retaining it")
		}
	})

	// Object 4's bytes change in place; its hash does not.
	snaps[4][0] = 9
	tr.Observe(4, snaps[4])
	if d := tr.DuplicateOf(3); len(d) != 0 {
		t.Fatalf("DuplicateOf(3) after 4 diverged = %v", d)
	}
	tr.Observe(5, []byte{9, 2, 2, 2})
	if d := tr.DuplicateOf(4); !slices.Equal(d, []int{5}) {
		t.Fatalf("DuplicateOf(4) = %v, want [5]", d)
	}

	tr.Evict(map[int]bool{2: true, 5: true})
	if g := tr.Groups(); len(g) != 0 {
		t.Fatalf("groups after evicting 2 and 5 = %v", g)
	}
	if g := tr.EverGroups(); !slices.EqualFunc(g, [][]int{{3, 4}}, slices.Equal[[]int]) {
		t.Fatalf("ever groups after eviction = %v, want [[3 4]]", g)
	}
	tr.Observe(6, slices.Clone(a))
	if d := tr.DuplicateOf(6); !slices.Equal(d, []int{1}) {
		t.Fatalf("DuplicateOf(6) = %v, want [1]", d)
	}
	// A freed member's group stays exact while a live member holds its bytes.
	tr.Free(1)
	tr.Observe(7, slices.Clone(b))
	if d := tr.DuplicateOf(7); !slices.Equal(d, []int{3}) {
		t.Fatalf("DuplicateOf(7) = %v, want [3]", d)
	}

	// The cross-device partition over keys from two trackers.
	type ref struct{ dev, id int }
	cc := NewContentClasses[ref]()
	cc.Set(ref{0, 1}, slices.Clone(a))
	cc.Set(ref{1, 1}, slices.Clone(b))
	cc.Set(ref{1, 2}, slices.Clone(a))
	cc.Set(ref{0, 2}, []byte{1, 1, 1})
	groups := cc.Groups()
	if len(groups) != 1 || len(groups[0]) != 2 || !slices.Contains(groups[0], ref{0, 1}) || !slices.Contains(groups[0], ref{1, 2}) {
		t.Fatalf("cross-device groups = %v, want [{0 1} {1 2}]", groups)
	}
}
