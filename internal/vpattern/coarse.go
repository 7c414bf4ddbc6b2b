package vpattern

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"

	"valueexpert/internal/interval"
	"valueexpert/internal/parallel"
)

// RedundancyThreshold is the unchanged-fraction above which ValueExpert
// reports the redundant values pattern ("Based on our experiments, we use
// a threshold of 33%", paper §5.1 footnote).
const RedundancyThreshold = 1.0 / 3.0

// DiffResult quantifies a pre/post snapshot comparison of one data object
// at one GPU API.
type DiffResult struct {
	WrittenBytes   uint64 // bytes covered by the API's write intervals
	UnchangedBytes uint64 // written bytes whose value did not change
}

// Fraction is the unchanged share of written bytes.
func (d DiffResult) Fraction() float64 {
	if d.WrittenBytes == 0 {
		return 0
	}
	return float64(d.UnchangedBytes) / float64(d.WrittenBytes)
}

// Redundant applies the paper's 33% threshold.
func (d DiffResult) Redundant() bool {
	return d.WrittenBytes > 0 && d.Fraction() >= RedundancyThreshold
}

// Match converts the diff to a pattern match (Def 3.1).
func (d DiffResult) Match() Match {
	return Match{Kind: RedundantValues, Fraction: d.Fraction(),
		Detail: fmt.Sprintf("%d of %d written bytes unchanged", d.UnchangedBytes, d.WrittenBytes)}
}

// refreshChunkBytes is the plan bytes one chunk of a Refresh covers;
// refreshBlockBytes is the block a chunk compares, counts and copies at
// a time.
const (
	refreshChunkBytes = 64 << 10
	refreshBlockBytes = 512
)

// Refresh brings a data object's host snapshot up to date with its device
// bytes over the copy plan and, in the same pass, diffs the two over the
// diffable intervals. Intervals hold absolute addresses; snap and dev
// start at objBase, and out-of-object portions are ignored. Plan and
// diffable must each be sorted and disjoint, and diffable must lie
// inside plan.
//
// Each block first gets one bytes.Equal: an equal block is all unchanged
// and is not copied, so refreshing an object nobody changed costs a
// memory-speed compare. A block that differs counts its unchanged
// diffable bytes a word at a time and is copied whole. The DiffResult is
// exactly the byte-for-byte pre-copy diff over diffable; changed reports
// whether any plan byte differed. The plan is cut and packed into chunks
// of refreshChunkBytes, so a small plan is one chunk the caller runs
// inline; chunks run over pool and combine by integer addition, so the
// result never depends on the split.
func Refresh(pool *parallel.Pool, snap, dev []byte, objBase uint64, plan, diffable []interval.Interval) (DiffResult, bool) {
	obj := interval.Interval{Start: objBase, End: objBase + uint64(min(len(snap), len(dev)))}
	chunks := interval.Chunks(interval.Clip(obj, plan), refreshChunkBytes)
	diffable = interval.Clip(obj, diffable)
	parts := parallel.MapChunks(pool, len(chunks), func(lo, hi int) (r refreshed) {
		for _, chunk := range chunks[lo:hi] {
			for _, c := range chunk {
				// Start at the first diffable interval ending past c's start.
				i := sort.Search(len(diffable), func(i int) bool { return diffable[i].End > c.Start })
				r.add(refreshRange(snap[c.Start-objBase:c.End-objBase], dev[c.Start-objBase:c.End-objBase], c.Start, diffable[i:]))
			}
		}
		return r
	})
	var r refreshed
	for _, p := range parts {
		r.add(p)
	}
	return r.DiffResult, r.changed
}

// refreshed is the outcome of refreshing part of a plan.
type refreshed struct {
	DiffResult
	changed bool
}

func (r *refreshed) add(o refreshed) {
	r.WrittenBytes += o.WrittenBytes
	r.UnchangedBytes += o.UnchangedBytes
	r.changed = r.changed || o.changed
}

// refreshRange is Refresh over one plan chunk: snap and dev are the
// chunk's bytes, at its absolute start address, and diffable starts at
// the first interval that can overlap it.
func refreshRange(snap, dev []byte, at uint64, diffable []interval.Interval) (r refreshed) {
	for off := 0; off < len(snap); off += refreshBlockBytes {
		end := min(off+refreshBlockBytes, len(snap))
		sb, db := snap[off:end], dev[off:end]
		lo, hi := at+uint64(off), at+uint64(end)
		same := bytes.Equal(sb, db)
		for len(diffable) > 0 && diffable[0].End <= lo {
			diffable = diffable[1:]
		}
		for _, iv := range diffable {
			if iv.Start >= hi {
				break
			}
			x, y := max(iv.Start, lo)-lo, min(iv.End, hi)-lo
			r.WrittenBytes += y - x
			if same {
				r.UnchangedBytes += y - x
			} else {
				r.UnchangedBytes += equalBytes(sb[x:y], db[x:y])
			}
		}
		if !same {
			r.changed = true
			copy(sb, db)
		}
	}
	return r
}

// equalBytes counts the positions at which a and b (of equal length)
// hold the same byte, eight at a time: XOR the words, then count the zero
// bytes of the result without branches or false positives.
func equalBytes(a, b []byte) uint64 {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	var n uint64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		// (x&lo7)+lo7 sets a byte's high bit iff its low seven bits are
		// non-zero and never carries into the next byte; OR-ing x adds
		// the byte's own high bit, so after the complement exactly the
		// zero bytes of x keep a set bit.
		n += uint64(bits.OnesCount64(^((x&lo7 + lo7) | x | lo7)))
	}
	for ; i < len(a); i++ {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}

// hashSnapshot is the candidate key of duplicate grouping: a 64-bit hash
// under one process-wide seed, so hashes from the trackers of different
// devices compare. It only narrows the candidates; bytes.Equal decides.
var hashSnapshot = func(b []byte) uint64 { return maphash.Bytes(snapshotSeed, b) }

var snapshotSeed = maphash.MakeSeed()

// ContentClasses partitions keys into classes of byte-identical contents:
// the seeded hash picks the candidate classes and bytes.Equal against a
// member's retained bytes confirms, so a hash collision never merges
// distinct contents. Contents are retained, not copied: a caller that
// modifies a key's bytes must Set the key again before any other call.
// A released key keeps its class but not its bytes; a class whose every
// member is released has only its hash left to confirm by.
type ContentClasses[K comparable] struct {
	byHash map[uint64][]*contentClass[K]
	of     map[K]*contentClass[K]
}

// contentClass is one set of keys whose contents are all equal; a
// released member's bytes are nil.
type contentClass[K comparable] struct {
	hash    uint64
	members map[K][]byte
}

// NewContentClasses creates an empty partition.
func NewContentClasses[K comparable]() *ContentClasses[K] {
	return &ContentClasses[K]{
		byHash: make(map[uint64][]*contentClass[K]),
		of:     make(map[K]*contentClass[K]),
	}
}

// Set records b as key k's contents: k leaves its class and joins the
// class holding exactly b, or starts one.
func (c *ContentClasses[K]) Set(k K, b []byte) { c.Add(k, hashSnapshot(b), b) }

// Add is Set for contents whose hash h is known, as Each reports it. Nil
// contents stand for a released key, which joins the first class under h.
func (c *ContentClasses[K]) Add(k K, h uint64, b []byte) {
	c.Remove(k)
	for _, cl := range c.byHash[h] {
		if rep := cl.contents(); rep == nil || b == nil || bytes.Equal(rep, b) {
			cl.members[k] = b
			c.of[k] = cl
			return
		}
	}
	cl := &contentClass[K]{hash: h, members: map[K][]byte{k: b}}
	c.byHash[h] = append(c.byHash[h], cl)
	c.of[k] = cl
}

// Release drops key k's retained bytes; k keeps its class.
func (c *ContentClasses[K]) Release(k K) {
	if cl := c.of[k]; cl != nil {
		cl.members[k] = nil
	}
}

// contents returns the bytes of a member that still holds them; nil when
// every member is released.
func (cl *contentClass[K]) contents() []byte {
	for _, b := range cl.members {
		if b != nil {
			return b
		}
	}
	return nil
}

func (cl *contentClass[K]) keys() []K {
	out := make([]K, 0, len(cl.members))
	for k := range cl.members {
		out = append(out, k)
	}
	return out
}

// Remove forgets key k and releases its retained bytes.
func (c *ContentClasses[K]) Remove(k K) {
	cl := c.of[k]
	if cl == nil {
		return
	}
	delete(c.of, k)
	delete(cl.members, k)
	if len(cl.members) > 0 {
		return
	}
	list := slices.DeleteFunc(c.byHash[cl.hash], func(x *contentClass[K]) bool { return x == cl })
	if len(list) == 0 {
		delete(c.byHash, cl.hash)
	} else {
		c.byHash[cl.hash] = list
	}
}

// Members returns the keys sharing k's contents, k included, in no
// particular order; nil when k is not held.
func (c *ContentClasses[K]) Members(k K) []K {
	if cl := c.of[k]; cl != nil {
		return cl.keys()
	}
	return nil
}

// Groups returns every class of two or more keys, members in no
// particular order.
func (c *ContentClasses[K]) Groups() [][]K {
	var out [][]K
	for _, list := range c.byHash {
		for _, cl := range list {
			if len(cl.members) >= 2 {
				out = append(out, cl.keys())
			}
		}
	}
	return out
}

// Each calls fn for every key with its hash and its class's contents,
// nil when every member is released.
func (c *ContentClasses[K]) Each(fn func(k K, h uint64, b []byte)) {
	for h, list := range c.byHash {
		for _, cl := range list {
			b := cl.contents()
			for k := range cl.members {
				fn(k, h, b)
			}
		}
	}
}

// DuplicateTracker groups data objects whose snapshots are byte-identical
// after a GPU API (Def 3.2). It retains each live object's snapshot slice
// — the coarse stage's own, not a copy. A freed object keeps its group
// membership until it is evicted but releases its snapshot, so the bytes
// the tracker holds never exceed the live objects' snapshots.
type DuplicateTracker struct {
	live *ContentClasses[int]

	// ever records every duplicate group observed at any point, keyed by
	// its canonical member list: Definition 3.2 matches objects with the
	// same values "at any GPU API", so groups persist in reports even
	// after the objects diverge.
	ever map[string][]int
}

// NewDuplicateTracker creates an empty tracker.
func NewDuplicateTracker() *DuplicateTracker {
	return &DuplicateTracker{
		live: NewContentClasses[int](),
		ever: make(map[string][]int),
	}
}

// Observe records the current snapshot of object objID, retaining the
// slice: the caller must Observe the object again after modifying it.
// Size-0 snapshots are ignored (empty objects are trivially equal).
func (t *DuplicateTracker) Observe(objID int, snapshot []byte) {
	if len(snapshot) == 0 {
		return
	}
	t.live.Set(objID, snapshot)
	if g := t.live.Members(objID); len(g) >= 2 {
		sort.Ints(g)
		t.ever[fmt.Sprint(g)] = g
	}
}

// Tracks reports whether objID has a recorded snapshot.
func (t *DuplicateTracker) Tracks(objID int) bool { return t.live.of[objID] != nil }

// Free releases a freed object's snapshot; the object keeps its group
// membership until Evict.
func (t *DuplicateTracker) Free(objID int) { t.live.Release(objID) }

// Evict forgets the given objects entirely: they leave the live groups
// and every historical group — groups left with fewer than two members
// dissolve, the rest re-key to their surviving member list. Called by
// the engine's dead-object eviction; the remaining objects' groups are
// exactly what a tracker that never saw the evicted objects would hold.
func (t *DuplicateTracker) Evict(dead map[int]bool) {
	for id := range dead {
		t.live.Remove(id)
	}
	rekeyed := make(map[string][]int, len(t.ever))
	for _, g := range t.ever {
		kept := g[:0]
		for _, id := range g {
			if !dead[id] {
				kept = append(kept, id)
			}
		}
		if len(kept) >= 2 {
			rekeyed[fmt.Sprint(kept)] = kept
		}
	}
	t.ever = rekeyed
}

// EverGroups returns every duplicate group observed at any API during the
// run, largest first; subsets of a recorded group are elided.
func (t *DuplicateTracker) EverGroups() [][]int {
	var out [][]int
	for _, g := range t.ever {
		out = append(out, g)
	}
	sortGroups(out)
	// Drop groups fully contained in an earlier (larger) group.
	var kept [][]int
	for _, g := range out {
		if !slices.ContainsFunc(kept, func(big []int) bool { return isSubset(g, big) }) {
			kept = append(kept, g)
		}
	}
	return kept
}

// sortGroups orders sorted groups largest first, ties by first member.
func sortGroups(gs [][]int) {
	sort.Slice(gs, func(i, j int) bool {
		if len(gs[i]) != len(gs[j]) {
			return len(gs[i]) > len(gs[j])
		}
		return gs[i][0] < gs[j][0]
	})
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// Groups returns the sets of object IDs currently sharing a snapshot,
// each sorted ascending, largest group first (ties by first member).
func (t *DuplicateTracker) Groups() [][]int {
	out := t.live.Groups()
	for _, g := range out {
		sort.Ints(g)
	}
	sortGroups(out)
	return out
}

// Each calls fn for every tracked object with its snapshot hash and its
// group's contents (nil once every member is freed), the raw material for
// cross-device duplicate analysis. The bytes are shared with the tracker
// and must not be modified.
func (t *DuplicateTracker) Each(fn func(objID int, h uint64, snapshot []byte)) { t.live.Each(fn) }

// DuplicateOf reports the objects currently duplicating objID's snapshot.
func (t *DuplicateTracker) DuplicateOf(objID int) []int {
	var out []int
	for _, id := range t.live.Members(objID) {
		if id != objID {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
