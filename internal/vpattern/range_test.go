package vpattern

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"valueexpert/gpu"
)

// rec is one access record of a test stream: a scalar access (Count ≤ 1)
// or a compacted range with its load capture (nil for fills, or for a
// load the engine could not capture).
type rec struct {
	obj  int
	a    gpu.Access
	vals []byte
}

// expandRange is the element-by-element range expansion the engine ran
// before ranges were ingested whole, kept as the oracle the bulk path is
// checked against: fills repeat the stored value, loads decode each
// element from the capture, and an unsupported width yields nothing.
func expandRange(a gpu.Access, vals []byte, each func(gpu.Access)) {
	elem := a
	elem.Count = 1
	if a.Store {
		for e := 0; e < a.Elems(); e++ {
			elem.Addr = a.Addr + uint64(e)*uint64(a.Size)
			each(elem)
		}
		return
	}
	if vals == nil || a.Size != 1 && a.Size != 2 && a.Size != 4 && a.Size != 8 {
		return
	}
	for e := 0; e < a.Elems(); e++ {
		off := uint64(e) * uint64(a.Size)
		var raw [8]byte
		copy(raw[:], vals[off:off+uint64(a.Size)])
		elem.Addr = a.Addr + off
		elem.Raw = binary.LittleEndian.Uint64(raw[:])
		each(elem)
	}
}

// ingestOracle feeds recs through Add, expanding ranges per element.
func ingestOracle(fa *FineAccumulator, recs []rec) {
	for _, r := range recs {
		if r.a.Count <= 1 {
			fa.Add(r.obj, r.a)
			continue
		}
		expandRange(r.a, r.vals, func(e gpu.Access) { fa.Add(r.obj, e) })
	}
}

// ingestBulk feeds recs the way the sequential engine does: scalars
// through Add, ranges decoded once and ingested whole.
func ingestBulk(fa *FineAccumulator, recs []rec) {
	for _, r := range recs {
		if r.a.Count <= 1 {
			fa.Add(r.obj, r.a)
		} else if raws := fa.DecodeRange(r.a, r.vals); raws != nil {
			fa.AddRange(r.obj, r.a, raws)
		}
	}
}

// builtinFine is the six builtin fine detectors, whatever else tests
// register.
func builtinFine() []Registration {
	return FineDetectors(Set{SingleZero: true, SingleValue: true, FrequentValues: true,
		HeavyType: true, StructuredValues: true, ApproximateValues: true})
}

// ingestProbeOnly builds the shared observation context of recs without
// the element hint: every element, ranges expanded, goes through plain
// valueHist.add, and every refused value through the same overflow
// accounting.
func ingestProbeOnly(cfg FineConfig, recs []rec) map[int]*ObjectShared {
	cfg = cfg.withDefaults()
	objs := map[int]*ObjectShared{}
	for _, r := range recs {
		each := func(a gpu.Access) {
			sh := objs[r.obj]
			if sh == nil {
				sh = &ObjectShared{}
				objs[r.obj] = sh
			}
			if a.Store {
				sh.Stores++
			} else {
				sh.Loads++
			}
			sh.Bytes += uint64(a.Size)
			v := Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}
			if sh.exact.add(v, 1, cfg.MaxTrackedValues) < 0 {
				sh.overflow(v, 1, &cfg)
			}
		}
		if r.a.Count <= 1 {
			each(r.a)
		} else {
			expandRange(r.a, r.vals, each)
		}
	}
	return objs
}

// checkShared asserts that fa's shared observation context equals the
// probe-only reference: the same objects, counters, overflow count, and
// exact and relaxed entries in first-occurrence order.
func checkShared(t *testing.T, path string, fa *FineAccumulator, ref map[int]*ObjectShared) {
	t.Helper()
	if len(fa.objs.IDs()) != len(ref) {
		t.Fatalf("%s: %d objects, probe-only reference %d", path, len(fa.objs.IDs()), len(ref))
	}
	for id, want := range ref {
		got := fa.objs.Get(id)
		switch {
		case got == nil:
			t.Fatalf("%s: object %d missing", path, id)
		case got.Loads != want.Loads || got.Stores != want.Stores || got.Bytes != want.Bytes || got.Overflow != want.Overflow:
			t.Fatalf("%s: object %d counters loads/stores/bytes/overflow %d/%d/%d/%d, probe-only %d/%d/%d/%d", path, id,
				got.Loads, got.Stores, got.Bytes, got.Overflow, want.Loads, want.Stores, want.Bytes, want.Overflow)
		case !slices.Equal(got.exact.entries, want.exact.entries):
			t.Fatalf("%s: object %d exact entries\n got %+v\nwant %+v", path, id, got.exact.entries, want.exact.entries)
		case !slices.Equal(got.relaxed.entries, want.relaxed.entries):
			t.Fatalf("%s: object %d relaxed entries\n got %+v\nwant %+v", path, id, got.relaxed.entries, want.relaxed.entries)
		}
	}
}

// checkRangeIngestion asserts, for each round of records in turn, that
// the bulk path finalizes exactly like the per-element oracle, and that
// both keep exactly the probe-only reference's shared context. One
// accumulator of each kind takes every round, Reset in between, so
// later rounds run on reused histograms and hints.
func checkRangeIngestion(t *testing.T, cfg FineConfig, rounds ...[]rec) {
	t.Helper()
	regs := builtinFine()
	oracle := NewFineAccumulatorWith(cfg, regs)
	fa := NewFineAccumulatorWith(cfg, regs)
	for round, recs := range rounds {
		oracle.Reset()
		fa.Reset()
		ingestOracle(oracle, recs)
		ingestBulk(fa, recs)
		ref := ingestProbeOnly(cfg, recs)
		checkShared(t, fmt.Sprintf("round %d per-element", round), oracle, ref)
		checkShared(t, fmt.Sprintf("round %d bulk", round), fa, ref)
		if want, got := oracle.Finalize(), fa.Finalize(); !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: bulk ingestion diverged from per-element expansion:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// loadRange builds a captured load range of width size over values
// vs, each truncated to the width.
func loadRange(obj int, addr uint64, size uint8, kind gpu.ValueKind, vs []uint64) rec {
	buf := make([]byte, 8*len(vs)+8)
	for e, v := range vs {
		binary.LittleEndian.PutUint64(buf[e*int(size):], v)
	}
	return rec{obj: obj, vals: buf[:len(vs)*int(size)],
		a: gpu.Access{Addr: addr, Size: size, Kind: kind, Count: uint32(len(vs))}}
}

func f32Raws(fs ...float32) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = gpu.RawFromFloat32(f)
	}
	return out
}

func f64Raws(fs ...float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = gpu.RawFromFloat64(f)
	}
	return out
}

// seqRaws returns n values lo, lo+step, … as raw bits.
func seqRaws(n int, lo, step int64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(lo + int64(i)*step)
	}
	return out
}

func TestRangeIngestionMatchesPerElement(t *testing.T) {
	nan := float32(math.NaN())
	cases := []rangeCase{
		{"widths and kinds", FineConfig{}, []rec{
			loadRange(1, 0x100, 1, gpu.KindUint, seqRaws(20, 250, 1)),
			loadRange(1, 0x200, 1, gpu.KindUint, seqRaws(20, 0, 3)),
			loadRange(2, 0x100, 2, gpu.KindInt, seqRaws(24, -5, 7)),
			loadRange(3, 0x100, 4, gpu.KindInt, seqRaws(32, -70000, 4000)),
			loadRange(4, 0x100, 4, gpu.KindUint, seqRaws(32, 1, 1)),
			loadRange(5, 0x100, 8, gpu.KindInt, seqRaws(17, math.MinInt64/2, 1<<40)),
			loadRange(6, 0x100, 8, gpu.KindUint, seqRaws(17, 0, 3)),
			loadRange(7, 0x100, 4, gpu.KindFloat, f32Raws(0, 1.5, 3, 4.5, 6, 7.5, 9, 10.5, 12, 13.5, 15, 16.5, 18, 19.5, 21, 22.5, 24)),
			loadRange(8, 0x100, 8, gpu.KindFloat, f64Raws(0.1, 0.2, 0.3, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)),
			loadRange(9, 0x100, 8, gpu.KindFloat, f64Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)),
			{obj: 9, a: gpu.Access{Addr: 0x100, Size: 8, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat64(0.1)}},
		}},
		{"fills, NaN and an uncaptured load", FineConfig{}, []rec{
			{obj: 1, a: gpu.Access{Addr: 0, Size: 4, Kind: gpu.KindFloat, Store: true, Raw: gpu.RawFromFloat32(2), Count: 40}},
			loadRange(1, 0, 4, gpu.KindFloat, f32Raws(2, 2, nan, 2, float32(math.Inf(-1)), 2)),
			{obj: 1, a: gpu.Access{Addr: 0x400, Size: 4, Kind: gpu.KindFloat, Count: 9}}, // no capture
			{obj: 2, a: gpu.Access{Addr: 0x400, Size: 4, Kind: gpu.KindFloat, Count: 9}}, // no capture, new object
			{obj: 3, a: gpu.Access{Addr: 8, Size: 2, Kind: gpu.KindInt, Store: true, Raw: 0xfffe, Count: 5}},
			{obj: 3, a: gpu.Access{Addr: 4, Size: 2, Kind: gpu.KindInt, Raw: 3}},
		}},
		{"unsupported width", FineConfig{}, []rec{
			loadRange(1, 0x30, 3, gpu.KindUint, seqRaws(6, 1, 1)),
			{obj: 2, a: gpu.Access{Addr: 0x30, Size: 3, Kind: gpu.KindInt, Store: true, Raw: 0x800000, Count: 6}},
			loadRange(2, 0x60, 4, gpu.KindInt, seqRaws(6, 1, 1)),
		}},
		{"overflow and relaxed histogram", FineConfig{MaxTrackedValues: 5}, []rec{
			loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 1.0001, 2, 2.0001, 3, 3.0001, 4, 4.0001, 1, 5, 5.0001)),
			{obj: 1, a: gpu.Access{Addr: 0x40, Size: 4, Kind: gpu.KindFloat, Store: true, Raw: gpu.RawFromFloat32(6), Count: 3}},
			loadRange(1, 0x80, 4, gpu.KindFloat, f32Raws(7, 7.0001, 1, 8, 8.0001, 9)),
			loadRange(2, 0, 8, gpu.KindUint, seqRaws(12, 100, 1)),
		}},
		{"structured sweep with an infinity", FineConfig{StructuredMinCount: 4}, []rec{
			loadRange(1, 0x100, 4, gpu.KindFloat, f32Raws(1, 3, 5, 7, float32(math.Inf(1)), 11, 13, 15, 17, 19)),
		}},
		{"structured element size differs from the range's", FineConfig{StructuredMinCount: 4}, []rec{
			{obj: 1, a: gpu.Access{Addr: 0x1000, Size: 8, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat64(0)}},
			loadRange(1, 0x1008, 4, gpu.KindFloat, f32Raws(1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6)),
			loadRange(2, 0x2002, 2, gpu.KindInt, seqRaws(9, 0, 2)),
			loadRange(2, 0x1000, 8, gpu.KindInt, seqRaws(9, 0, 8)),
		}},
	}
	for _, tc := range append(cases, hintCases...) {
		t.Run(tc.name, func(t *testing.T) { checkRangeIngestion(t, tc.cfg, tc.recs) })
	}

	// An accumulator reused across Reset meets new values, and fewer of
	// them, at the addresses whose hints the earlier round set.
	t.Run("reused across Reset", func(t *testing.T) {
		checkRangeIngestion(t, FineConfig{MaxTrackedValues: 8},
			[]rec{
				loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
				loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
				{obj: 2, a: gpu.Access{Addr: 0x40, Size: 8, Kind: gpu.KindUint, Raw: 3}},
			},
			[]rec{
				loadRange(1, 0, 4, gpu.KindFloat, f32Raws(10, 10, 9, 9)),
				loadRange(1, 0, 4, gpu.KindFloat, f32Raws(10, 9, 8, 7, 6, 5, 4, 3, 2, 1)),
				{obj: 2, a: gpu.Access{Addr: 0x40, Size: 8, Kind: gpu.KindUint, Raw: 4}},
			},
			nil,
			[]rec{loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 1, 1))},
		)
	})
}

// rangeCase is one record stream checked by checkRangeIngestion.
type rangeCase struct {
	name string
	cfg  FineConfig
	recs []rec
}

// hintCases aim at the exact histogram's element hint. FuzzAddRange
// seeds its corpus with them, so they stay within rangeRecs' input
// format: objects below 4, addresses multiples of 4 below 1 KiB, ranges
// under 48 elements, caps below 32.
var hintCases = []rangeCase{
	{"reloaded elements whose values changed", FineConfig{}, []rec{
		loadRange(1, 0x100, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8)),
		loadRange(1, 0x100, 4, gpu.KindFloat, f32Raws(1, 9, 3, 10, 5, 2, 7, 1)),
		{obj: 1, a: gpu.Access{Addr: 0x104, Size: 4, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat32(2)}},
		{obj: 1, a: gpu.Access{Addr: 0x100, Size: 4, Kind: gpu.KindFloat, Store: true, Raw: gpu.RawFromFloat32(0), Count: 8}},
		loadRange(1, 0x100, 4, gpu.KindFloat, f32Raws(0, 0, 0, 1, 0, 0, 0, 0)),
		loadRange(1, 0x104, 4, gpu.KindFloat, f32Raws(9, 3, 10)),
	}},
	{"element indices a multiple of the hint length apart", FineConfig{}, slices.Concat(
		strideRecs(1, 8, 16, 1), strideRecs(1, 8, 16, 2), strideRecs(1, 4, 32, 1),
		[]rec{loadRange(1, 0x300, 4, gpu.KindFloat, f32Raws(20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
			36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59))},
		strideRecs(1, 4, 64, 3), strideRecs(1, 4, 64, 1), strideRecs(1, 2, 128, 2),
	)},
	{"one address under several widths and kinds", FineConfig{}, slices.Concat(
		kindsAt(1, 0x40), kindsAt(1, 0x40), kindsAt(1, 0x80),
		[]rec{
			// Element index 16 under three widths: one hint slot, three values.
			{obj: 1, a: gpu.Access{Addr: 0x20, Size: 2, Kind: gpu.KindInt, Raw: 7}},
			{obj: 1, a: gpu.Access{Addr: 0x80, Size: 8, Kind: gpu.KindUint, Raw: 7}},
			{obj: 1, a: gpu.Access{Addr: 0x40, Size: 4, Kind: gpu.KindInt, Raw: 7}},
			loadRange(1, 0x40, 2, gpu.KindInt, seqRaws(4, 7, 0)),
		},
	)},
	{"saturated at one value, then hits", FineConfig{MaxTrackedValues: 1}, []rec{
		loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 2, 1, 3, 1)),
		loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 1, 1, 2, 1)),
		{obj: 1, a: gpu.Access{Addr: 4, Size: 4, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat32(1)}},
		{obj: 1, a: gpu.Access{Addr: 4, Size: 4, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat32(2)}},
	}},
	{"saturated at eight values, then hits", FineConfig{MaxTrackedValues: 8}, []rec{
		loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
		loadRange(1, 0, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
		loadRange(1, 8, 4, gpu.KindFloat, f32Raws(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
		{obj: 1, a: gpu.Access{Addr: 0x30, Size: 4, Kind: gpu.KindFloat, Store: true, Raw: gpu.RawFromFloat32(8), Count: 6}},
		loadRange(1, 0x28, 4, gpu.KindFloat, f32Raws(11, 12, 8, 8, 8)),
	}},
}

// strideRecs is scalar loads of float32 value v at the elements 0,
// stride, 2·stride, … below n·stride: elements whose hints share a slot
// whenever the hint length divides stride.
func strideRecs(obj, n int, stride uint64, v float32) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{obj: obj, a: gpu.Access{Addr: 4 * stride * uint64(i), Size: 4, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat32(v)}}
	}
	return out
}

// kindsAt is scalar loads of raw 7 at addr under each width and kind:
// one address, several distinct values.
func kindsAt(obj int, addr uint64) []rec {
	var out []rec
	for _, w := range []struct {
		size uint8
		kind gpu.ValueKind
	}{{4, gpu.KindInt}, {4, gpu.KindUint}, {8, gpu.KindUint}, {2, gpu.KindInt}, {1, gpu.KindUint}, {4, gpu.KindFloat}, {8, gpu.KindFloat}} {
		out = append(out, rec{obj: obj, a: gpu.Access{Addr: addr, Size: w.size, Kind: w.kind, Raw: 7}})
	}
	return out
}

// recordingObserver implements only Observe, so ranges reach it through
// the per-element fallback.
type recordingObserver struct{ seen *[]rec }

func (d recordingObserver) Observe(objID int, a gpu.Access) {
	*d.seen = append(*d.seen, rec{obj: objID, a: a})
}
func (d recordingObserver) Finalize(int, *ObjectShared) (Match, bool) {
	return Match{}, false
}

// TestRangeFallbackObservesPerElement: an observer without ObserveRange
// sees, for every range, exactly the per-element accesses the old
// expansion produced, in order.
func TestRangeFallbackObservesPerElement(t *testing.T) {
	var seen []rec
	regs := []Registration{{Kind: KindAuto, Name: "test recording", Grain: GrainFine,
		New: func(FineConfig) Detector { return recordingObserver{seen: &seen} }}}
	recs := []rec{
		loadRange(3, 0x40, 4, gpu.KindFloat, f32Raws(1, float32(math.NaN()), 3)),
		{obj: 4, a: gpu.Access{PC: 7, Addr: 0x80, Size: 8, Kind: gpu.KindUint, Store: true, Raw: 9, Count: 4, Block: 2, Thread: 33}},
		{obj: 4, a: gpu.Access{Addr: 0x80, Size: 8, Kind: gpu.KindUint, Raw: 5}},
		{obj: 5, a: gpu.Access{Addr: 0x80, Size: 4, Kind: gpu.KindUint, Count: 3}}, // no capture
	}
	var want []rec
	for _, r := range recs {
		if r.a.Count <= 1 {
			want = append(want, r)
			continue
		}
		expandRange(r.a, r.vals, func(e gpu.Access) { want = append(want, rec{obj: r.obj, a: e}) })
	}
	ingestBulk(NewFineAccumulatorWith(FineConfig{}, regs), recs)
	if len(seen) != len(want) {
		t.Fatalf("fallback observed %d accesses, want %d", len(seen), len(want))
	}
	for i := range want {
		g, w := seen[i], want[i]
		// NaN raw bits compare exactly, unlike the float they encode.
		if g.obj != w.obj || g.a != w.a {
			t.Fatalf("access %d: observed %+v, want %+v", i, g, w)
		}
	}
}

// rangeRecs decodes fuzz input into a record stream: per record a header
// byte (width, kind, store, capture), a count byte (≤ 1 is a scalar), an
// object byte, an address byte, then the values.
func rangeRecs(data []byte) []rec {
	next := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	var recs []rec
	for len(data) > 0 && len(recs) < 64 {
		h := next(4)
		size := []uint8{1, 2, 3, 4, 8}[int(h[0])%5]
		kind := gpu.ValueKind(h[0] / 5 % 4)
		if kind == gpu.KindFloat && size != 4 && size != 8 {
			size = 4
		}
		r := rec{obj: int(h[2] % 4), a: gpu.Access{
			Addr: uint64(h[3]) * 4, Size: size, Kind: kind, Store: h[0]&0x80 != 0, Count: uint32(h[1] % 48),
		}}
		switch {
		case r.a.Count <= 1 || r.a.Store:
			r.a.Raw = binary.LittleEndian.Uint64(next(8))
			if size < 8 {
				r.a.Raw &= 1<<(8*size) - 1
			}
		case h[1] < 240:
			r.vals = next(int(r.a.Bytes()))
		}
		recs = append(recs, r)
	}
	return recs
}

// fuzzInput encodes recs in rangeRecs' input format.
func fuzzInput(recs []rec) []byte {
	var out []byte
	for _, r := range recs {
		h := 0
		for ; h < 256; h++ {
			if []uint8{1, 2, 3, 4, 8}[h%5] == r.a.Size && gpu.ValueKind(h/5%4) == r.a.Kind && (h&0x80 != 0) == r.a.Store {
				break
			}
		}
		out = append(out, byte(h), byte(r.a.Count), byte(r.obj), byte(r.a.Addr/4))
		if r.a.Count <= 1 || r.a.Store {
			out = binary.LittleEndian.AppendUint64(out, r.a.Raw)
		} else {
			out = append(out, r.vals...)
		}
	}
	return out
}

// bumped is recs with every value changed at the same addresses: each
// raw plus one within its width, each captured byte plus one.
func bumped(recs []rec) []rec {
	out := make([]rec, len(recs))
	for i, r := range recs {
		r.a.Raw++
		if r.a.Size < 8 {
			r.a.Raw &= 1<<(8*r.a.Size) - 1
		}
		if r.vals != nil {
			vals := make([]byte, len(r.vals))
			for j, b := range r.vals {
				vals[j] = b + 1
			}
			r.vals = vals
		}
		out[i] = r
	}
	return out
}

// FuzzAddRange: any stream of scalars, fills and captured or uncaptured
// load ranges finalizes identically through the bulk path and the
// per-element oracle, and keeps the probe-only reference's shared
// context, under a histogram cap the input chooses; so does the same
// stream with every value changed, fed to the same accumulators after
// a Reset.
func FuzzAddRange(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{18, 8, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add(uint8(1), []byte{0x80 | 17, 30, 2, 1, 0, 0, 128, 63, 0, 0, 0, 0, 2, 5, 2, 0, 9, 9})
	for _, tc := range hintCases {
		in := fuzzInput(tc.recs)
		if !reflect.DeepEqual(rangeRecs(in), tc.recs) {
			f.Fatalf("%s: seed does not decode to its records", tc.name)
		}
		f.Add(uint8(tc.cfg.MaxTrackedValues), in)
	}
	f.Fuzz(func(t *testing.T, maxTracked uint8, data []byte) {
		cfg := FineConfig{StructuredMinCount: 4}
		if maxTracked > 0 {
			cfg.MaxTrackedValues = int(maxTracked % 32)
			if cfg.MaxTrackedValues == 0 {
				cfg.MaxTrackedValues = 1
			}
		}
		recs := rangeRecs(data)
		checkRangeIngestion(t, cfg, recs, bumped(recs))
	})
}
