package vpattern

import (
	"math"
	"testing"

	"valueexpert/gpu"
)

func addN(fa *FineAccumulator, obj int, n int, mk func(i int) gpu.Access) {
	for i := 0; i < n; i++ {
		fa.Add(obj, mk(i))
	}
}

func f32Access(addr uint64, v float32, store bool) gpu.Access {
	return gpu.Access{Addr: addr, Size: 4, Kind: gpu.KindFloat, Store: store, Raw: gpu.RawFromFloat32(v)}
}

func TestSingleZeroAndSingleValue(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{})
	addN(fa, 1, 100, func(i int) gpu.Access { return f32Access(uint64(4*i), 0, true) })
	addN(fa, 2, 100, func(i int) gpu.Access { return f32Access(uint64(4*i), 7.5, false) })
	reps := fa.Finalize()
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	zero, val := reps[0], reps[1]
	if !zero.HasPattern(SingleZero) || !zero.HasPattern(SingleValue) {
		t.Fatalf("object 1 patterns = %v, want single zero + single value", zero.Patterns)
	}
	if !val.HasPattern(SingleValue) || val.HasPattern(SingleZero) {
		t.Fatalf("object 2 patterns = %v, want single value only", val.Patterns)
	}
	if zero.Loads != 0 || zero.Stores != 100 || val.Loads != 100 {
		t.Fatal("load/store counts wrong")
	}
	if m, _ := val.Pattern(SingleValue); m.Fraction != 1 {
		t.Fatalf("single value fraction = %v", m.Fraction)
	}
}

func TestNegativeZeroIsZero(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{})
	addN(fa, 1, 10, func(i int) gpu.Access { return f32Access(uint64(4*i), float32(math.Copysign(0, -1)), true) })
	rep := fa.Finalize()[0]
	if !rep.HasPattern(SingleZero) {
		t.Fatalf("-0.0 not recognized as zero: %v", rep.Patterns)
	}
}

func TestFrequentValues(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{FrequentThreshold: 0.6})
	// 70% zeros, 30% varied: frequent but not single.
	addN(fa, 1, 100, func(i int) gpu.Access {
		if i < 70 {
			return f32Access(uint64(4*i), 0, true)
		}
		return f32Access(uint64(4*i), float32(i), true)
	})
	rep := fa.Finalize()[0]
	if rep.HasPattern(SingleValue) || rep.HasPattern(SingleZero) {
		t.Fatalf("should not be single: %v", rep.Patterns)
	}
	m, ok := rep.Pattern(FrequentValues)
	if !ok || m.Fraction < 0.69 || m.Fraction > 0.71 {
		t.Fatalf("frequent = %+v, %v", m, ok)
	}
	if rep.TopValues[0].Count != 70 {
		t.Fatalf("top value count = %d", rep.TopValues[0].Count)
	}
	// Below threshold: no pattern.
	fa2 := NewFineAccumulator(FineConfig{FrequentThreshold: 0.8})
	addN(fa2, 1, 100, func(i int) gpu.Access {
		if i < 70 {
			return f32Access(uint64(4*i), 0, true)
		}
		return f32Access(uint64(4*i), float32(i), true)
	})
	if rep := fa2.Finalize()[0]; rep.HasPattern(FrequentValues) {
		t.Fatal("frequent reported below threshold")
	}
}

func TestHeavyTypeInt(t *testing.T) {
	// int32 values in [0,100] — the Rodinia/bfs g_cost case: demote to int8.
	fa := NewFineAccumulator(FineConfig{})
	addN(fa, 1, 50, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(4 * i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(i % 100))}
	})
	rep := fa.Finalize()[0]
	m, ok := rep.Pattern(HeavyType)
	if !ok {
		t.Fatalf("no heavy type: %v", rep.Patterns)
	}
	if m.Detail != "int32 values fit in int8 (range [0,49])" || m.Fraction != 0.75 {
		t.Fatalf("heavy type match = %+v", m)
	}
	// Negative values that still fit int8.
	fa2 := NewFineAccumulator(FineConfig{})
	addN(fa2, 1, 50, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(4 * i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(int32(-i)))}
	})
	if rep := fa2.Finalize()[0]; !rep.HasPattern(HeavyType) {
		t.Fatal("negative small ints not flagged heavy")
	}
	// Full-range int32: no pattern.
	fa3 := NewFineAccumulator(FineConfig{})
	addN(fa3, 1, 50, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(4 * i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(int32(1 << 30 * (i%2*2 - 1))))}
	})
	if rep := fa3.Finalize()[0]; rep.HasPattern(HeavyType) {
		t.Fatal("full-range ints flagged heavy")
	}
}

func TestHeavyTypeUintAndF64(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{})
	addN(fa, 1, 40, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(8 * i), Size: 8, Kind: gpu.KindUint, Raw: uint64(i % 200)}
	})
	if rep := fa.Finalize()[0]; !rep.HasPattern(HeavyType) {
		t.Fatal("small uint64 not flagged heavy")
	}
	// float64 values exactly representable as float32.
	fa2 := NewFineAccumulator(FineConfig{})
	addN(fa2, 1, 40, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(8 * i), Size: 8, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat64(float64(float32(i) * 0.5))}
	})
	if rep := fa2.Finalize()[0]; !rep.HasPattern(HeavyType) {
		t.Fatal("f32-representable f64 not flagged heavy")
	}
	// float64 needing full precision: not heavy.
	fa3 := NewFineAccumulator(FineConfig{})
	addN(fa3, 1, 4000, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(8 * i), Size: 8, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat64(1.0/3.0 + float64(i)*1e-13)}
	})
	if rep := fa3.Finalize()[0]; rep.HasPattern(HeavyType) {
		t.Fatal("full-precision f64 flagged heavy")
	}
}

func TestHeavyTypeFloatDictionary(t *testing.T) {
	// lavaMD's rA: doubles drawn from ten values {0.1..1.0} (paper §8.6).
	fa := NewFineAccumulator(FineConfig{})
	vals := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	addN(fa, 1, 500, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(8 * i), Size: 8, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat64(vals[i%10])}
	})
	rep := fa.Finalize()[0]
	m, ok := rep.Pattern(HeavyType)
	if !ok {
		t.Fatalf("dictionary floats not flagged heavy: %v", rep.Patterns)
	}
	if m.Detail == "" {
		t.Fatal("missing suggestion detail")
	}
}

func TestStructuredValues(t *testing.T) {
	// srad_v1's d_iN-style arrays: value = linear function of index.
	fa := NewFineAccumulator(FineConfig{})
	base := uint64(0x1000)
	addN(fa, 1, 200, func(i int) gpu.Access {
		return gpu.Access{Addr: base + uint64(4*i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(int32(i - 1)))}
	})
	rep := fa.Finalize()[0]
	m, ok := rep.Pattern(StructuredValues)
	if !ok {
		t.Fatalf("no structured pattern: %v", rep.Patterns)
	}
	if m.Fraction < 0.99 {
		t.Fatalf("r² = %v", m.Fraction)
	}
	// Random values: no pattern.
	fa2 := NewFineAccumulator(FineConfig{})
	addN(fa2, 1, 200, func(i int) gpu.Access {
		return gpu.Access{Addr: base + uint64(4*i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32((i*2654435761 + 17) % 1000))}
	})
	if rep := fa2.Finalize()[0]; rep.HasPattern(StructuredValues) {
		t.Fatal("random values reported structured")
	}
	// Constant values: single value, not structured.
	fa3 := NewFineAccumulator(FineConfig{})
	addN(fa3, 1, 200, func(i int) gpu.Access {
		return gpu.Access{Addr: base + uint64(4*i), Size: 4, Kind: gpu.KindInt, Raw: 5}
	})
	rep3 := fa3.Finalize()[0]
	if rep3.HasPattern(StructuredValues) || !rep3.HasPattern(SingleValue) {
		t.Fatalf("constant: %v", rep3.Patterns)
	}
	// Too few accesses: fit not attempted.
	fa4 := NewFineAccumulator(FineConfig{StructuredMinCount: 64})
	addN(fa4, 1, 20, func(i int) gpu.Access {
		return gpu.Access{Addr: base + uint64(4*i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(i))}
	})
	if rep := fa4.Finalize()[0]; rep.HasPattern(StructuredValues) {
		t.Fatal("structured fit attempted below min count")
	}
}

// Regression: device addresses are ~2^46, large enough that naive x²
// sums catastrophically cancel. The fit must stay numerically stable —
// no NaN matches — and still detect linearity at realistic addresses.
func TestStructuredValuesHighAddresses(t *testing.T) {
	const base = uint64(0x7f00_0000_0000)
	fa := NewFineAccumulator(FineConfig{})
	addN(fa, 1, 500, func(i int) gpu.Access {
		return gpu.Access{Addr: base + uint64(4*i), Size: 4, Kind: gpu.KindInt, Raw: uint64(uint32(2*i + 7))}
	})
	rep := fa.Finalize()[0]
	m, ok := rep.Pattern(StructuredValues)
	if !ok {
		t.Fatalf("linear values at high addresses not detected: %v", rep.Patterns)
	}
	if math.IsNaN(m.Fraction) || m.Fraction < 0.99 {
		t.Fatalf("fit unstable: %+v", m)
	}
	// A periodic sawtooth at high addresses: must not yield NaN or a
	// phantom match.
	fa2 := NewFineAccumulator(FineConfig{})
	addN(fa2, 1, 5000, func(i int) gpu.Access {
		return f32Access(base+uint64(4*i), float32(i%97)*0.25, false)
	})
	rep2 := fa2.Finalize()[0]
	for _, p := range rep2.Patterns {
		if math.IsNaN(p.Fraction) {
			t.Fatalf("NaN pattern fraction: %+v", p)
		}
	}
	if rep2.HasPattern(StructuredValues) {
		t.Fatalf("sawtooth reported structured: %v", rep2.Patterns)
	}
}

// The structured fit indexes a power-of-two element size by a shift and
// any other by division; at device addresses near 2^47 the two agree.
func TestStructuredIndexShiftIsDivision(t *testing.T) {
	const top = uint64(1) << 47
	for _, size := range []uint8{1, 2, 4, 8} {
		var st structState
		st.setElemSize(size)
		if st.elemShift < 0 {
			t.Fatalf("size %d: no shift", size)
		}
		for _, addr := range []uint64{top - 9, top - 8, top - 1, top, top + 1, top + 3, top + 7, 2*top - 1, 0x7f00_0000_0004} {
			if got, want := st.index(addr), addr/uint64(size); got != want {
				t.Fatalf("size %d addr %#x: index %d, want %d", size, addr, got, want)
			}
		}
	}
	var st structState
	if st.setElemSize(3); st.elemShift >= 0 || st.index(top+5) != (top+5)/3 {
		t.Fatalf("size 3: shift %d, index %d", st.elemShift, st.index(top+5))
	}
}

func TestApproximateValues(t *testing.T) {
	// hotspot-style: values all within a tiny epsilon of 80.0 — exact
	// analysis sees thousands of distinct values, truncated analysis one.
	fa := NewFineAccumulator(FineConfig{ApproxMantissaBits: 8})
	addN(fa, 1, 1000, func(i int) gpu.Access {
		return f32Access(uint64(4*i), 80+float32(i)*1e-5, false)
	})
	rep := fa.Finalize()[0]
	if rep.HasPattern(SingleValue) {
		t.Fatal("exact single value should not hold")
	}
	m, ok := rep.Pattern(ApproximateValues)
	if !ok {
		t.Fatalf("no approximate pattern: %v", rep.Patterns)
	}
	if m.Fraction < 0.99 {
		t.Fatalf("approximate fraction = %v", m.Fraction)
	}
	// Truly varied floats: no approximate pattern.
	fa2 := NewFineAccumulator(FineConfig{ApproxMantissaBits: 8})
	addN(fa2, 1, 1000, func(i int) gpu.Access {
		return f32Access(uint64(4*i), float32(i), false)
	})
	if rep := fa2.Finalize()[0]; rep.HasPattern(ApproximateValues) {
		t.Fatal("varied floats reported approximate")
	}
	// Exact-frequent objects don't need the relaxation.
	fa3 := NewFineAccumulator(FineConfig{ApproxMantissaBits: 8})
	addN(fa3, 1, 1000, func(i int) gpu.Access { return f32Access(uint64(4*i), 80, false) })
	if rep := fa3.Finalize()[0]; rep.HasPattern(ApproximateValues) {
		t.Fatal("exact single value also reported approximate")
	}
}

func TestHistogramSaturation(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{MaxTrackedValues: 16})
	addN(fa, 1, 100, func(i int) gpu.Access {
		return gpu.Access{Addr: uint64(4 * i), Size: 4, Kind: gpu.KindUint, Raw: uint64(i)}
	})
	rep := fa.Finalize()[0]
	if !rep.Saturated || rep.DistinctValues != 16 {
		t.Fatalf("saturation: %+v", rep)
	}
	// Saturated histograms must not fabricate single-value patterns.
	if rep.HasPattern(SingleValue) {
		t.Fatal("false single value under saturation")
	}
}

func TestMixedAccessTypesDisableHeavyType(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{})
	fa.Add(1, gpu.Access{Addr: 0, Size: 4, Kind: gpu.KindInt, Raw: 1})
	fa.Add(1, gpu.Access{Addr: 4, Size: 4, Kind: gpu.KindFloat, Raw: gpu.RawFromFloat32(1)})
	rep := fa.Finalize()[0]
	if rep.HasPattern(HeavyType) {
		t.Fatal("heavy type on inconsistent access types")
	}
}

func TestResetAndObjects(t *testing.T) {
	fa := NewFineAccumulator(FineConfig{})
	fa.Add(3, f32Access(0, 1, true))
	fa.Add(1, f32Access(0, 1, true))
	ids := fa.Objects()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("objects = %v", ids)
	}
	fa.Reset()
	if len(fa.Finalize()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestValueNumericAndFormat(t *testing.T) {
	cases := []struct {
		v    Value
		num  float64
		text string
	}{
		{Value{Raw: gpu.RawFromFloat32(2.5), Size: 4, Kind: gpu.KindFloat}, 2.5, "2.5"},
		{Value{Raw: gpu.RawFromFloat64(-3), Size: 8, Kind: gpu.KindFloat}, -3, "-3"},
		{Value{Raw: uint64(uint32(0xFFFFFFFB)), Size: 4, Kind: gpu.KindInt}, -5, "-5"},
		{Value{Raw: 0xFF, Size: 1, Kind: gpu.KindUint}, 255, "0xff"},
	}
	for _, c := range cases {
		if c.v.Numeric() != c.num {
			t.Fatalf("Numeric(%+v) = %v, want %v", c.v, c.v.Numeric(), c.num)
		}
		if c.v.Format() != c.text {
			t.Fatalf("Format(%+v) = %q, want %q", c.v, c.v.Format(), c.text)
		}
	}
}

func TestTruncate(t *testing.T) {
	v := Value{Raw: gpu.RawFromFloat64(1.0000001), Size: 8, Kind: gpu.KindFloat}
	tv := v.Truncate(10)
	if tv.Raw == v.Raw {
		t.Fatal("truncation did nothing")
	}
	one := Value{Raw: gpu.RawFromFloat64(1.0), Size: 8, Kind: gpu.KindFloat}
	if tv.Raw != one.Truncate(10).Raw {
		t.Fatal("nearby values do not collapse after truncation")
	}
	// Non-floats unchanged.
	iv := Value{Raw: 12345, Size: 4, Kind: gpu.KindInt}
	if iv.Truncate(4) != iv {
		t.Fatal("int truncated")
	}
	// keepBits >= mantissa width: unchanged.
	if v.Truncate(60) != v {
		t.Fatal("over-wide truncation changed value")
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
	m := Match{Kind: SingleZero, Fraction: 1}
	if m.String() == "" {
		t.Fatal("match render")
	}
	m.Detail = "x"
	if m.String() == "" {
		t.Fatal("match render with detail")
	}
}
