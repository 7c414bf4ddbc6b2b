package vpattern

import (
	"encoding/binary"
	"math"
	"reflect"
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
	if vals == nil {
		return
	}
	for e := 0; e < a.Elems(); e++ {
		off := uint64(e) * uint64(a.Size)
		raw, err := gpu.RawValue(vals[off:], a.Size)
		if err != nil {
			continue
		}
		elem.Addr = a.Addr + off
		elem.Raw = raw
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

// checkRangeIngestion asserts that the bulk path finalizes exactly like
// the per-element oracle over recs.
func checkRangeIngestion(t *testing.T, cfg FineConfig, recs []rec) {
	t.Helper()
	regs := builtinFine()
	oracle := NewFineAccumulatorWith(cfg, regs)
	ingestOracle(oracle, recs)
	want := oracle.Finalize()
	fa := NewFineAccumulatorWith(cfg, regs)
	ingestBulk(fa, recs)
	if got := fa.Finalize(); !reflect.DeepEqual(want, got) {
		t.Fatalf("bulk ingestion diverged from per-element expansion:\n got %+v\nwant %+v", got, want)
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
	cases := []struct {
		name string
		cfg  FineConfig
		recs []rec
	}{
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkRangeIngestion(t, tc.cfg, tc.recs) })
	}
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

// FuzzAddRange: any stream of scalars, fills and captured or uncaptured
// load ranges finalizes identically through the bulk path and the
// per-element oracle, under a histogram cap the input chooses.
func FuzzAddRange(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{18, 8, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add(uint8(1), []byte{0x80 | 17, 30, 2, 1, 0, 0, 128, 63, 0, 0, 0, 0, 2, 5, 2, 0, 9, 9})
	f.Fuzz(func(t *testing.T, maxTracked uint8, data []byte) {
		cfg := FineConfig{StructuredMinCount: 4}
		if maxTracked > 0 {
			cfg.MaxTrackedValues = int(maxTracked % 32)
			if cfg.MaxTrackedValues == 0 {
				cfg.MaxTrackedValues = 1
			}
		}
		checkRangeIngestion(t, cfg, rangeRecs(data))
	})
}
