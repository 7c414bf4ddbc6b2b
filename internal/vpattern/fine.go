package vpattern

import (
	"encoding/binary"
	"math/bits"

	"valueexpert/gpu"
)

func ellipsis(yes bool) string {
	if yes {
		return ", …"
	}
	return ""
}

// FineConfig tunes fine-grained pattern recognition.
type FineConfig struct {
	// FrequentThreshold 𝒯 is the access share a value must exceed to be
	// "frequent" (Def 3.3). Default 0.5.
	FrequentThreshold float64
	// ApproxMantissaBits 𝒦 is the mantissa precision kept when relaxing
	// float values for approximate-pattern analysis (Def 3.8). Default 10
	// (≈3 decimal digits, within the paper's 2% RMSE budget).
	ApproxMantissaBits int
	// MaxTrackedValues caps the exact-value histogram; beyond it, new
	// distinct values are folded into an overflow count and single/
	// frequent detection degrades conservatively (no false positives).
	// Default 1<<16.
	MaxTrackedValues int
	// StructuredMinR2 is the minimum coefficient of determination for the
	// structured-values linear fit (Def 3.7). Default 0.99.
	StructuredMinR2 float64
	// StructuredMinCount is the minimum number of accesses before a
	// structured fit is attempted. Default 16.
	StructuredMinCount int
}

func (c FineConfig) withDefaults() FineConfig {
	if c.FrequentThreshold == 0 {
		c.FrequentThreshold = 0.5
	}
	if c.ApproxMantissaBits == 0 {
		c.ApproxMantissaBits = 10
	}
	if c.MaxTrackedValues == 0 {
		c.MaxTrackedValues = 1 << 16
	}
	if c.StructuredMinR2 == 0 {
		c.StructuredMinR2 = 0.99
	}
	if c.StructuredMinCount == 0 {
		c.StructuredMinCount = 16
	}
	return c
}

// hash mixes a Value into a table index with a splitmix64-style finalizer.
// Size and Kind fold into the high bits so values differing only in their
// declared type still spread.
func (v Value) hash() uint64 {
	h := v.Raw ^ uint64(v.Size)<<56 ^ uint64(v.Kind)<<48
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

const histMinSlots = 16 // power of two

// valueHist is an insertion-ordered value histogram. Ordering by first
// occurrence makes saturation behaviour and dominant-value selection
// deterministic.
//
// Layout: entries is a flat arena in first-occurrence order; slots is an
// open-addressing index over it (entry index + 1, 0 = empty, linear
// probing, power-of-two sized). Lookups touch one cache line of int32
// slots plus the entry itself — no per-value heap boxes — and a reset
// keeps both allocations, so a reused histogram adds values without
// allocating at all.
//
// near is a direct-mapped hint over element indices, as long as slots:
// near[elem mod len] holds the entry index + 1 of the value last added
// at that element (0 = none). Kernels reload the same elements, so most
// adds find their entry there (hit) without a probe. hit verifies every
// hint against the entry's value, so any element-to-hint mapping is
// exact; only the hit rate depends on it. addAt writes the hint; a
// histogram that only ever adds (the relaxed one) never allocates it.
type valueHist struct {
	entries []ValueCount
	slots   []int32
	near    []int32
}

// add counts n occurrences of v, admitting at most maxTracked distinct
// values. It returns v's entry index, or -1 when v is untracked;
// untracked occurrences are the caller's to account (overflow or silent
// drop).
func (h *valueHist) add(v Value, n uint64, maxTracked int) int {
	if len(h.slots) == 0 {
		h.grow(histMinSlots)
	}
	mask := uint64(len(h.slots) - 1)
	i := v.hash() & mask
	for {
		s := h.slots[i]
		if s == 0 {
			break
		}
		if e := &h.entries[s-1]; e.Value == v {
			e.Count += n
			return int(s - 1)
		}
		i = (i + 1) & mask
	}
	if len(h.entries) >= maxTracked {
		return -1
	}
	h.entries = append(h.entries, ValueCount{Value: v, Count: n})
	h.slots[i] = int32(len(h.entries))
	// Keep the load factor under 3/4 so probe chains stay short.
	if 4*len(h.entries) >= 3*len(h.slots) {
		h.grow(2 * len(h.slots))
	}
	return len(h.entries) - 1
}

// hit counts one occurrence of v at element index elem if elem's hint
// names v's entry, reporting whether it did. A hinted entry holding v is
// v's unique entry, so counting it leaves exactly the state add(v, 1, …)
// would — saturated or not, since add counts a tracked value before its
// cap check.
func (h *valueHist) hit(v Value, elem uint64) bool {
	k := elem & uint64(len(h.near)-1)
	if k >= uint64(len(h.near)) { // near is empty until the first addAt
		return false
	}
	s := h.near[k]
	if s == 0 || h.entries[s-1].Value != v {
		return false
	}
	h.entries[s-1].Count++
	return true
}

// addAt is add(v, 1, maxTracked) for a value at element index elem, the
// path after a failed hit: it probes for v and points elem's hint at the
// entry found or admitted, first resizing near to slots, empty.
func (h *valueHist) addAt(v Value, elem uint64, maxTracked int) bool {
	idx := h.add(v, 1, maxTracked)
	if idx < 0 {
		return false
	}
	if len(h.near) != len(h.slots) {
		// slots only grow, so this runs once per growth (reset keeps both).
		h.near = make([]int32, len(h.slots))
	}
	h.near[elem&uint64(len(h.near)-1)] = int32(idx + 1)
	return true
}

// grow resizes the slot index to n (a power of two) and reindexes every
// entry. The entries arena grows with it, to the ¾ load factor's bound,
// so it doubles with the index instead of regrowing by append's 1.25×
// steps.
func (h *valueHist) grow(n int) {
	if cap(h.slots) >= n {
		h.slots = h.slots[:n]
		clear(h.slots)
	} else {
		h.slots = make([]int32, n)
	}
	if m := 3 * n / 4; cap(h.entries) < m {
		h.entries = append(make([]ValueCount, 0, m), h.entries...)
	}
	mask := uint64(n - 1)
	for idx := range h.entries {
		i := h.entries[idx].Value.hash() & mask
		for h.slots[i] != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = int32(idx + 1)
	}
}

// reset empties the histogram keeping every allocation, so the next use
// adds values without growing.
func (h *valueHist) reset() {
	h.entries = h.entries[:0]
	clear(h.slots)
	clear(h.near)
}

func (h *valueHist) len() int { return len(h.entries) }

// ObjectShared is one data object's shared observation context: the
// access counters and exact-value histogram the accumulator maintains
// once per access, read by every detector at Finalize. Keeping the
// histogram here — rather than per detector — is what lets six detectors
// coexist at the cost the old monolith paid for one.
type ObjectShared struct {
	// Loads and Stores count accesses by direction.
	Loads, Stores uint64
	// Bytes is the total bytes accessed.
	Bytes uint64
	// Overflow counts accesses whose value fell outside the tracked set.
	Overflow uint64

	exact valueHist
	// relaxed is the relaxed-overflow histogram: the mantissa-truncated
	// values (Def 3.8) of the float accesses the saturated exact
	// histogram refused. The first overflow seeds it, with count 0, from
	// the truncations of every tracked float entry, so its first-occurrence
	// order and cap continue those of the tracked entries' truncations.
	// Replaying the tracked entries' truncations, then relaxed, rebuilds
	// exactly the histogram a per-access pass over truncated values would
	// hold (approxDetector). Empty while the object never overflowed.
	relaxed valueHist
	top     []ValueCount
}

// clear empties the state keeping the histograms' and ranking's
// allocations for reuse.
func (sh *ObjectShared) clear() {
	sh.Loads, sh.Stores, sh.Bytes, sh.Overflow = 0, 0, 0, 0
	sh.exact.reset()
	sh.relaxed.reset()
	sh.top = sh.top[:0]
}

// overflow accounts n occurrences of v, a value the saturated exact
// histogram refused, feeding the relaxed-overflow histogram.
func (sh *ObjectShared) overflow(v Value, n uint64, cfg *FineConfig) {
	if sh.Overflow == 0 {
		// Every tracked entry first occurred before this first overflow,
		// so their truncations lead the relaxed first-occurrence order.
		for _, e := range sh.exact.entries {
			if e.Value.Kind == gpu.KindFloat {
				sh.relaxed.add(e.Value.Truncate(cfg.ApproxMantissaBits), 0, cfg.MaxTrackedValues)
			}
		}
	}
	sh.Overflow += n
	if v.Kind == gpu.KindFloat {
		sh.relaxed.add(v.Truncate(cfg.ApproxMantissaBits), n, cfg.MaxTrackedValues)
	}
}

// Accesses returns the total access count.
func (sh *ObjectShared) Accesses() uint64 { return sh.Loads + sh.Stores }

// Distinct returns the number of distinct exact values tracked (capped).
func (sh *ObjectShared) Distinct() int { return sh.exact.len() }

// Saturated reports whether the histogram cap was reached, making
// distinct/top counts lower bounds.
func (sh *ObjectShared) Saturated() bool { return sh.Overflow > 0 }

// Values returns the exact histogram in first-occurrence order. The
// slice is shared; callers must not mutate it.
func (sh *ObjectShared) Values() []ValueCount { return sh.exact.entries }

// Top returns the ranked most-frequent values (descending count, capped
// at 8), valid during Finalize. The slice is shared; callers must not
// mutate it.
func (sh *ObjectShared) Top() []ValueCount { return sh.top }

// Single returns the object's only value when exactly one distinct value
// was observed and the histogram never saturated.
func (sh *ObjectShared) Single() (Value, bool) {
	if sh.exact.len() == 1 && sh.Overflow == 0 {
		return sh.exact.entries[0].Value, true
	}
	return Value{}, false
}

// rankBefore is the ranking's strict total order: count descending, then
// raw/size/kind ascending, so the top set is reproducible across runs and
// worker configurations.
func rankBefore(a, b ValueCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.Value.Raw != b.Value.Raw {
		return a.Value.Raw < b.Value.Raw
	}
	if a.Value.Size != b.Value.Size {
		return a.Value.Size < b.Value.Size
	}
	return a.Value.Kind < b.Value.Kind
}

// rank computes the top-8 values with one bounded-insertion pass over the
// arena entries — no copy of the full histogram, no full sort. Because
// rankBefore is a strict total order, the kept set and its order equal
// those of a full sort truncated to 8.
func (sh *ObjectShared) rank() {
	const topK = 8
	top := sh.top[:0]
	if cap(top) < topK {
		top = make([]ValueCount, 0, topK)
	}
	for _, e := range sh.exact.entries {
		if len(top) == topK && !rankBefore(e, top[topK-1]) {
			continue
		}
		// Insertion position: shift the tail right, drop the overflow.
		pos := len(top)
		for pos > 0 && rankBefore(e, top[pos-1]) {
			pos--
		}
		if len(top) < topK {
			top = append(top, ValueCount{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = e
	}
	sh.top = top
}

// FineReport is the fine-grained pattern result for one data object at one
// GPU API.
type FineReport struct {
	ObjectID       int
	Accesses       uint64
	Loads, Stores  uint64
	Bytes          uint64
	DistinctValues int  // exact distinct values observed (capped)
	Saturated      bool // histogram cap reached; counts are lower bounds

	// TopValues are the most frequent values, descending by count.
	TopValues []ValueCount

	Patterns []Match
}

// ValueCount pairs a value with its access count.
type ValueCount struct {
	Value Value
	Count uint64
}

// HasPattern reports whether the report contains a pattern of kind k.
func (r *FineReport) HasPattern(k Kind) bool {
	for _, m := range r.Patterns {
		if m.Kind == k {
			return true
		}
	}
	return false
}

// Pattern returns the match of kind k, if present.
func (r *FineReport) Pattern(k Kind) (Match, bool) {
	for _, m := range r.Patterns {
		if m.Kind == k {
			return m, true
		}
	}
	return Match{}, false
}

// Resetter is the optional Observer extension that clears state in place,
// letting a reused accumulator keep its observer state's allocations. An
// observer without it is rebuilt from its registration factory on every
// Reset; a detector that is not an Observer accumulates nothing and is
// never reset.
type Resetter interface {
	Reset()
}

// rangeObserver is the optional internal Observer extension for ingesting
// a compacted range record whole: raws holds the values of a's
// a.Elems() consecutive elements (element e at a.Addr + e·a.Size) in
// element order. It must leave exactly the state Observe would leave
// after each element in turn.
type rangeObserver interface {
	ObserveRange(objID int, a gpu.Access, raws []uint64)
}

// elementwise ingests a range through an Observer without ObserveRange
// (e.g. an out-of-tree pattern): one Observe call per element, each a
// scalar access (Count 1) at the element's address carrying its value.
type elementwise struct{ Observer }

func (o elementwise) ObserveRange(objID int, a gpu.Access, raws []uint64) {
	elem := a
	elem.Count = 1
	for e, raw := range raws {
		elem.Addr = a.Addr + uint64(e)*uint64(a.Size)
		elem.Raw = raw
		o.Observe(objID, elem)
	}
}

// FineAccumulator ingests instrumented accesses grouped by data object and
// produces per-object fine-grained pattern reports for the current GPU
// API. It maintains the shared observation context (counters + exact
// histogram) and fans each access out to the Observers in its detector
// lineup; matches are emitted in detector registration order. One
// accumulator sees one launch's accesses once, in order, so every
// observer's state is a single sequential pass. Reset between APIs (the
// online analyzer finalizes at each kernel exit).
type FineAccumulator struct {
	cfg  FineConfig
	regs []Registration
	dets []Detector
	// obs are the Observers among dets; ranges are the same observers,
	// index for index, as range ingesters (elementwise where
	// ObserveRange is missing).
	obs    []Observer
	ranges []rangeObserver
	objs   Table[ObjectShared]

	// raws is DecodeRange's scratch. It grows to the longest range
	// decoded, which is bounded by that range's access-time capture (loads)
	// or by the device memory the fill wrote (stores).
	raws []uint64
}

// NewFineAccumulator creates an accumulator running every fine-grained
// detector enabled by default in the registry.
func NewFineAccumulator(cfg FineConfig) *FineAccumulator {
	return NewFineAccumulatorWith(cfg, FineDetectors(nil))
}

// NewFineAccumulatorWith creates an accumulator running exactly the given
// detector registrations. A detector left out costs nothing per access.
func NewFineAccumulatorWith(cfg FineConfig, regs []Registration) *FineAccumulator {
	fa := &FineAccumulator{cfg: cfg.withDefaults(), regs: regs}
	fa.dets = make([]Detector, len(regs))
	for i, r := range regs {
		fa.dets[i] = r.New(fa.cfg)
	}
	fa.collectObservers()
	return fa
}

// collectObservers rebuilds the observer views over dets.
func (fa *FineAccumulator) collectObservers() {
	fa.obs, fa.ranges = fa.obs[:0], fa.ranges[:0]
	for _, d := range fa.dets {
		o, ok := d.(Observer)
		if !ok {
			continue
		}
		ro, ok := o.(rangeObserver)
		if !ok {
			ro = elementwise{o}
		}
		fa.obs = append(fa.obs, o)
		fa.ranges = append(fa.ranges, ro)
	}
}

// addShared folds one access into the object's shared observation context.
func (fa *FineAccumulator) addShared(objID int, a gpu.Access) {
	sh, _ := fa.objs.At(objID)
	if a.Store {
		sh.Stores++
	} else {
		sh.Loads++
	}
	sh.Bytes += uint64(a.Size)

	// Exact histogram (capped), hinted by element index.
	v := Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}
	elem := a.Addr >> bits.TrailingZeros8(a.Size)
	if !sh.exact.hit(v, elem) && !sh.exact.addAt(v, elem, fa.cfg.MaxTrackedValues) {
		sh.overflow(v, 1, &fa.cfg)
	}
}

// addSharedRange is addShared for every element of range a, valued raws,
// in element order, after one object lookup.
func (fa *FineAccumulator) addSharedRange(objID int, a gpu.Access, raws []uint64) {
	sh, _ := fa.objs.At(objID)
	n := uint64(len(raws))
	if a.Store {
		sh.Stores += n
	} else {
		sh.Loads += n
	}
	sh.Bytes += n * uint64(a.Size)

	v := Value{Size: a.Size, Kind: a.Kind}
	elem := a.Addr >> bits.TrailingZeros8(a.Size)
	for _, raw := range raws {
		v.Raw = raw
		if !sh.exact.hit(v, elem) && !sh.exact.addAt(v, elem, fa.cfg.MaxTrackedValues) {
			sh.overflow(v, 1, &fa.cfg)
		}
		elem++
	}
}

// DecodeRange decodes the element values of compacted range record a
// (a.Count > 1) into fa's scratch, in element order: a fill store repeats
// a.Raw; a load decodes vals, the bytes its range read at access time. It
// returns nil for a load without a capture or of an unsupported width,
// which the engine skips. The slice is valid until fa's next DecodeRange.
func (fa *FineAccumulator) DecodeRange(a gpu.Access, vals []byte) []uint64 {
	if !a.Store && vals == nil {
		return nil
	}
	n := a.Elems()
	if cap(fa.raws) < n {
		fa.raws = make([]uint64, n)
	}
	raws := fa.raws[:n]
	if a.Store {
		for e := range raws {
			raws[e] = a.Raw
		}
		return raws
	}
	switch a.Size {
	case 1:
		for e, b := range vals[:n] {
			raws[e] = uint64(b)
		}
	case 2:
		vals = vals[:2*n]
		for e := range raws {
			raws[e] = uint64(binary.LittleEndian.Uint16(vals[2*e:]))
		}
	case 4:
		vals = vals[:4*n]
		for e := range raws {
			raws[e] = uint64(binary.LittleEndian.Uint32(vals[4*e:]))
		}
	case 8:
		vals = vals[:8*n]
		for e := range raws {
			raws[e] = binary.LittleEndian.Uint64(vals[8*e:])
		}
	default:
		return nil
	}
	return raws
}

// Add records one access belonging to the data object objID.
func (fa *FineAccumulator) Add(objID int, a gpu.Access) {
	fa.addShared(objID, a)
	for _, o := range fa.obs {
		o.Observe(objID, a)
	}
}

// AddRange is Add for every element of compacted range record a, whose
// values raws holds in element order (DecodeRange): the shared context
// and each observer take the whole range after one object lookup.
func (fa *FineAccumulator) AddRange(objID int, a gpu.Access, raws []uint64) {
	fa.addSharedRange(objID, a, raws)
	for _, o := range fa.ranges {
		o.ObserveRange(objID, a, raws)
	}
}

// Objects returns the IDs with accumulated accesses, ascending. The
// slice is shared: callers must not modify it, and it is valid until the
// next Add, AddRange or Reset.
func (fa *FineAccumulator) Objects() []int { return fa.objs.IDs() }

// Reset clears all accumulated state for the next GPU API in place: the
// object table, histograms, and observers that implement Resetter keep
// their allocations, so a reused accumulator's Add path is
// allocation-free in the steady state.
func (fa *FineAccumulator) Reset() {
	fa.objs.Reset((*ObjectShared).clear)
	rebuilt := false
	for i, d := range fa.dets {
		if _, ok := d.(Observer); !ok {
			continue
		}
		if r, ok := d.(Resetter); ok {
			r.Reset()
		} else {
			fa.dets[i] = fa.regs[i].New(fa.cfg)
			rebuilt = true
		}
	}
	if rebuilt {
		fa.collectObservers()
	}
}

// Finalize computes fine-grained pattern reports for every accumulated
// object, ordered by object ID.
func (fa *FineAccumulator) Finalize() []FineReport {
	var out []FineReport
	for _, id := range fa.Objects() {
		out = append(out, fa.finalizeObject(id, fa.objs.Get(id)))
	}
	return out
}

func (fa *FineAccumulator) finalizeObject(id int, sh *ObjectShared) FineReport {
	total := sh.Accesses()
	r := FineReport{
		ObjectID: id, Accesses: total, Loads: sh.Loads, Stores: sh.Stores,
		Bytes: sh.Bytes, DistinctValues: sh.Distinct(), Saturated: sh.Saturated(),
	}
	if total == 0 {
		return r
	}
	sh.rank()
	r.TopValues = sh.top
	for _, d := range fa.dets {
		if m, ok := d.Finalize(id, sh); ok {
			r.Patterns = append(r.Patterns, m)
		}
	}
	return r
}
