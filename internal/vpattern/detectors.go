package vpattern

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"valueexpert/gpu"
)

// The six builtin fine-grained detectors. Four (single zero, single
// value, frequent values, approximate values) read everything they need
// from the shared observation context at Finalize and cost nothing per
// access; the two Observers (heavy type, structured values) keep only the
// per-object state their own definition requires, in dense ID-indexed
// tables that reset in place for reuse.

// singleZeroDetector recognizes Def 3.5: every accessed value is zero.
type singleZeroDetector struct{}

func newSingleZeroDetector(FineConfig) Detector { return singleZeroDetector{} }

func (singleZeroDetector) Finalize(_ int, sh *ObjectShared) (Match, bool) {
	if v, ok := sh.Single(); ok && v.IsZero() {
		return Match{Kind: SingleZero, Fraction: 1,
			Detail: "all accessed values are zero"}, true
	}
	return Match{}, false
}

// singleValueDetector recognizes Def 3.4: every access sees one value.
type singleValueDetector struct{}

func newSingleValueDetector(FineConfig) Detector { return singleValueDetector{} }

func (singleValueDetector) Finalize(_ int, sh *ObjectShared) (Match, bool) {
	if v, ok := sh.Single(); ok {
		return Match{Kind: SingleValue, Fraction: 1,
			Detail: fmt.Sprintf("all accesses see value %s", v.Format())}, true
	}
	return Match{}, false
}

// frequentDetector recognizes Def 3.3: "accesses to one or more
// particular values" — the smallest set of hot values (capped at 8) whose
// cumulative access share reaches the threshold 𝒯. A single value
// subsumes it.
type frequentDetector struct{ cfg FineConfig }

func newFrequentDetector(cfg FineConfig) Detector { return frequentDetector{cfg: cfg} }

func (d frequentDetector) Finalize(_ int, sh *ObjectShared) (Match, bool) {
	if _, single := sh.Single(); single {
		return Match{}, false
	}
	top := sh.Top()
	if len(top) == 0 {
		return Match{}, false
	}
	total := sh.Accesses()
	var cum uint64
	hot := 0
	for _, vc := range top {
		cum += vc.Count
		hot++
		if float64(cum)/float64(total) >= d.cfg.FrequentThreshold {
			break
		}
	}
	frac := float64(cum) / float64(total)
	if frac < d.cfg.FrequentThreshold {
		return Match{}, false
	}
	names := make([]string, 0, 3)
	for _, vc := range top[:min(hot, 3)] {
		names = append(names, vc.Value.Format())
	}
	return Match{Kind: FrequentValues, Fraction: frac,
		Detail: fmt.Sprintf("%d hot value(s) {%s%s} account for %.1f%% of accesses",
			hot, strings.Join(names, ", "), ellipsis(hot > 3), 100*frac)}, true
}

// heavyState is one object's range/type tracking for heavy type.
type heavyState struct {
	// Declared access type: the (kind, size) all accesses agree on; a
	// conflict downgrades to unknown.
	at        gpu.AccessType
	atConsist bool

	minI, maxI   int64
	minU, maxU   uint64
	allF64AsF32  bool
	sawInt, sawU bool
	sawFloat     bool
}

// heavyTypeDetector recognizes Def 3.6: values declared wide but
// narrow-representable, from per-object min/max and flag folds.
type heavyTypeDetector struct {
	objs Table[heavyState]
}

func newHeavyTypeDetector(FineConfig) Detector { return &heavyTypeDetector{} }

func (d *heavyTypeDetector) Reset() { d.objs.Reset(nil) }

// state returns objID's state after folding in a's declared access type.
func (d *heavyTypeDetector) state(objID int, a gpu.Access) *heavyState {
	at := gpu.AccessType{Kind: a.Kind, Size: a.Size}
	st, created := d.objs.At(objID)
	if created {
		st.at, st.atConsist, st.allF64AsF32 = at, true, true
		st.minI, st.maxI = math.MaxInt64, math.MinInt64
		st.minU = math.MaxUint64
	} else if st.at != at {
		st.atConsist = false
	}
	return st
}

func (d *heavyTypeDetector) Observe(objID int, a gpu.Access) {
	st := d.state(objID, a)
	switch a.Kind {
	case gpu.KindInt:
		st.sawInt = true
		s := signExtend(a.Raw, a.Size)
		if s < st.minI {
			st.minI = s
		}
		if s > st.maxI {
			st.maxI = s
		}
	case gpu.KindUint:
		st.sawU = true
		if a.Raw < st.minU {
			st.minU = a.Raw
		}
		if a.Raw > st.maxU {
			st.maxU = a.Raw
		}
	case gpu.KindFloat:
		st.sawFloat = true
		if a.Size == 8 {
			f := gpu.Float64FromRaw(a.Raw)
			if float64(float32(f)) != f {
				st.allF64AsF32 = false
			}
		}
	}
}

// ObserveRange folds a range's values with one state lookup: every
// element shares a's declared type, so only the first can change the
// type-consistency state.
func (d *heavyTypeDetector) ObserveRange(objID int, a gpu.Access, raws []uint64) {
	st := d.state(objID, a)
	switch a.Kind {
	case gpu.KindInt:
		st.sawInt = true
		lo, hi := st.minI, st.maxI
		for _, raw := range raws {
			s := signExtend(raw, a.Size)
			lo, hi = min(lo, s), max(hi, s)
		}
		st.minI, st.maxI = lo, hi
	case gpu.KindUint:
		st.sawU = true
		lo, hi := st.minU, st.maxU
		for _, raw := range raws {
			lo, hi = min(lo, raw), max(hi, raw)
		}
		st.minU, st.maxU = lo, hi
	case gpu.KindFloat:
		st.sawFloat = true
		if a.Size == 8 && st.allF64AsF32 {
			for _, raw := range raws {
				if f := gpu.Float64FromRaw(raw); float64(float32(f)) != f {
					st.allF64AsF32 = false
					break
				}
			}
		}
	}
}

func (d *heavyTypeDetector) Finalize(objID int, sh *ObjectShared) (Match, bool) {
	st := d.objs.Get(objID)
	if st == nil || !st.atConsist {
		return Match{}, false
	}
	declared := st.at
	switch {
	case st.sawInt && declared.Size >= 2:
		need := intWidth(st.minI, st.maxI)
		if need < declared.Size {
			return Match{Kind: HeavyType,
				Fraction: 1 - float64(need)/float64(declared.Size),
				Detail: fmt.Sprintf("int%d values fit in int%d (range [%d,%d])",
					8*declared.Size, 8*need, st.minI, st.maxI)}, true
		}
	case st.sawU && declared.Size >= 2:
		need := uintWidth(st.maxU)
		if need < declared.Size {
			return Match{Kind: HeavyType,
				Fraction: 1 - float64(need)/float64(declared.Size),
				Detail: fmt.Sprintf("uint%d values fit in uint%d (max %d)",
					8*declared.Size, 8*need, st.maxU)}, true
		}
	case st.sawFloat && declared.Size == 8 && st.allF64AsF32:
		return Match{Kind: HeavyType, Fraction: 0.5,
			Detail: "float64 values are exactly representable as float32"}, true
	case st.sawFloat && sh.Distinct() >= 2 && sh.Distinct() <= 256 && !sh.Saturated() &&
		sh.Accesses() >= 4*uint64(sh.Distinct()):
		// A tiny dictionary of float values (e.g. lavaMD's rA drawn from
		// {0.1..1.0}) can travel as uint8 indices (paper §8.6).
		return Match{Kind: HeavyType,
			Fraction: 1 - float64(1)/float64(declared.Size),
			Detail: fmt.Sprintf("float%d values drawn from %d distinct values; index with uint8",
				8*declared.Size, sh.Distinct())}, true
	}
	return Match{}, false
}

func intWidth(lo, hi int64) uint8 {
	for _, w := range []uint8{1, 2, 4} {
		floor := -(int64(1) << (8*w - 1))
		ceil := int64(1)<<(8*w-1) - 1
		if lo >= floor && hi <= ceil {
			return w
		}
	}
	return 8
}

func uintWidth(hi uint64) uint8 {
	switch {
	case hi <= math.MaxUint8:
		return 1
	case hi <= math.MaxUint16:
		return 2
	case hi <= math.MaxUint32:
		return 4
	}
	return 8
}

// structState holds one object's streaming sums for the structured-values
// least-squares fit (x = element index relative to the first accessed
// address, keeping magnitudes small enough that the sums stay numerically
// stable).
type structState struct {
	n            float64
	x0           float64
	x0set        bool
	sumX, sumY   float64
	sumXX, sumXY float64
	sumYY        float64
	elemSize     uint64
	// elemShift is log2(elemSize) when elemSize is a power of two, or
	// -1: an address's element index is then a shift, not a division.
	elemShift int8
}

// setElemSize fixes the object's element size at the first access's.
func (st *structState) setElemSize(size uint8) {
	if st.elemSize != 0 {
		return
	}
	st.elemSize, st.elemShift = uint64(size), -1
	if size != 0 && size&(size-1) == 0 {
		st.elemShift = int8(bits.TrailingZeros8(size))
	}
}

// index is addr's element index, addr/elemSize.
func (st *structState) index(addr uint64) uint64 {
	if st.elemShift >= 0 {
		return addr >> uint(st.elemShift)
	}
	return addr / st.elemSize
}

// structuredDetector recognizes Def 3.7: linear value↔address correlation.
// Its float sums depend on the order they are added in; the engine feeds
// it each launch's accesses once, in order.
type structuredDetector struct {
	cfg  FineConfig
	objs Table[structState]
}

func newStructuredDetector(cfg FineConfig) Detector {
	return &structuredDetector{cfg: cfg}
}

func (d *structuredDetector) Reset() { d.objs.Reset(nil) }

func (d *structuredDetector) Observe(objID int, a gpu.Access) {
	st, _ := d.objs.At(objID)
	st.setElemSize(a.Size)
	idx := st.index(a.Addr)
	if !st.x0set {
		st.x0 = float64(idx)
		st.x0set = true
	}
	x := float64(idx) - st.x0 // monotone in address
	y := Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}.Numeric()
	if !math.IsNaN(y) && !math.IsInf(y, 0) {
		st.n++
		st.sumX += x
		st.sumY += y
		st.sumXX += x * x
		st.sumXY += x * y
		st.sumYY += y * y
	}
}

// ObserveRange folds a range's values with one state lookup, adding to
// the sums in element order so they match per-element observation bit for
// bit.
func (d *structuredDetector) ObserveRange(objID int, a gpu.Access, raws []uint64) {
	st, _ := d.objs.At(objID)
	st.setElemSize(a.Size)
	es, step := st.elemSize, uint64(a.Size)
	first := st.index(a.Addr)
	if !st.x0set {
		st.x0 = float64(first)
		st.x0set = true
	}
	// Element e's index is (a.Addr + e·step)/es, monotone in address;
	// when the range strides by es it is simply the first index + e, and
	// while indices stay below 2^53 the float x = index - x0 is exact, so
	// stepping it by 1 gives the same value as converting each index.
	exact := es == step && first+uint64(len(raws)) < 1<<53 && st.x0 < 1<<53
	x := float64(first) - st.x0
	if exact && a.Kind == gpu.KindFloat {
		switch a.Size {
		case 4:
			st.foldF32(x, raws)
			return
		case 8:
			st.foldF64(x, raws)
			return
		}
	}
	n, sumX, sumY, sumXX, sumXY, sumYY := st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY
	v := Value{Size: a.Size, Kind: a.Kind}
	for e, raw := range raws {
		if !exact {
			idx := first + uint64(e)
			if es != step {
				idx = st.index(a.Addr + uint64(e)*step)
			}
			x = float64(idx) - st.x0
		}
		v.Raw = raw
		if y := v.Numeric(); y-y == 0 { // finite: NaN and ±Inf give NaN
			n++
			sumX += x
			sumY += y
			sumXX += x * x
			sumXY += x * y
			sumYY += y * y
		}
		x++
	}
	st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY = n, sumX, sumY, sumXX, sumXY, sumYY
}

// foldF32 is ObserveRange's loop for an exact-stride float32 range whose
// first element sits at x. It takes y as Value.Numeric does and grows the
// sums in the same order, so they match bit for bit.
func (st *structState) foldF32(x float64, raws []uint64) {
	n, sumX, sumY, sumXX, sumXY, sumYY := st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY
	for _, raw := range raws {
		if y := float64(gpu.Float32FromRaw(raw)); y-y == 0 {
			n++
			sumX += x
			sumY += y
			sumXX += x * x
			sumXY += x * y
			sumYY += y * y
		}
		x++
	}
	st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY = n, sumX, sumY, sumXX, sumXY, sumYY
}

// foldF64 is foldF32 for float64 ranges.
func (st *structState) foldF64(x float64, raws []uint64) {
	n, sumX, sumY, sumXX, sumXY, sumYY := st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY
	for _, raw := range raws {
		if y := gpu.Float64FromRaw(raw); y-y == 0 {
			n++
			sumX += x
			sumY += y
			sumXX += x * x
			sumXY += x * y
			sumYY += y * y
		}
		x++
	}
	st.n, st.sumX, st.sumY, st.sumXX, st.sumXY, st.sumYY = n, sumX, sumY, sumXX, sumXY, sumYY
}

func (d *structuredDetector) Finalize(objID int, _ *ObjectShared) (Match, bool) {
	st := d.objs.Get(objID)
	if st == nil || st.n < float64(d.cfg.StructuredMinCount) {
		return Match{}, false
	}
	n := st.n
	den := n*st.sumXX - st.sumX*st.sumX
	if den == 0 {
		return Match{}, false
	}
	varY := n*st.sumYY - st.sumY*st.sumY
	if varY <= 0 {
		// Constant values: that's single value, not structured.
		return Match{}, false
	}
	slope := (n*st.sumXY - st.sumX*st.sumY) / den
	// Intercept at the first accessed element (index 0 of the fit),
	// which for whole-array sweeps is the object's first element.
	intercept := (st.sumY - slope*st.sumX) / n
	r := (n*st.sumXY - st.sumX*st.sumY) / math.Sqrt(den*varY)
	r2 := r * r
	if math.IsNaN(r2) || r2 < d.cfg.StructuredMinR2 || slope == 0 {
		return Match{}, false
	}
	return Match{Kind: StructuredValues, Fraction: r2,
		Detail: fmt.Sprintf("value ≈ %.6g·index %+.6g (r²=%.4f, index from first accessed element)",
			slope, intercept, r2)}, true
}

// approxDetector recognizes Def 3.8: mantissa truncation exposes a
// single/frequent pattern the exact histogram does not. It keeps no
// per-object state: Finalize derives the object's histogram of truncated
// float values from the shared context (relax).
type approxDetector struct {
	cfg FineConfig
	// scratch holds the histogram relax derives for the object being
	// finalized; reused across objects.
	scratch valueHist
}

func newApproxDetector(cfg FineConfig) Detector {
	return &approxDetector{cfg: cfg}
}

// relax rebuilds into d.scratch the histogram of truncated float values
// a per-access pass would have built under the same cap. Replaying the
// exact entries in first-occurrence order through Truncate reproduces
// it: a truncated value first occurs together with its first-occurring
// preimage, so insertion order, counts, the cap and tie-breaking all
// match. Past saturation the accesses the exact histogram refused are in
// sh.relaxed, whose order continues the tracked entries' (see
// ObjectShared.overflow); its count-0 seeds add nothing on replay.
func (d *approxDetector) relax(sh *ObjectShared) *valueHist {
	h := &d.scratch
	h.reset()
	for _, e := range sh.exact.entries {
		if e.Value.Kind == gpu.KindFloat {
			h.add(e.Value.Truncate(d.cfg.ApproxMantissaBits), e.Count, d.cfg.MaxTrackedValues)
		}
	}
	for _, e := range sh.relaxed.entries {
		h.add(e.Value, e.Count, d.cfg.MaxTrackedValues)
	}
	return h
}

func (d *approxDetector) Finalize(_ int, sh *ObjectShared) (Match, bool) {
	if _, single := sh.Single(); single {
		return Match{}, false
	}
	// The relaxation must *expose* something exact analysis missed; the
	// ranked top value carries the exact histogram's highest count.
	total := sh.Accesses()
	if top := sh.Top(); len(top) > 0 && float64(top[0].Count)/float64(total) >= d.cfg.FrequentThreshold {
		return Match{}, false
	}
	h := d.relax(sh)
	// Find the dominant truncated value; insertion order breaks ties, so
	// the first value to reach the top count wins deterministically.
	var best Value
	var bestCnt uint64
	for _, e := range h.entries {
		if e.Count > bestCnt {
			best, bestCnt = e.Value, e.Count
		}
	}
	frac := float64(bestCnt) / float64(total)
	if h.len() == 0 || frac < d.cfg.FrequentThreshold {
		return Match{}, false
	}
	kind := "frequent values"
	if h.len() == 1 {
		kind = "single value"
	}
	return Match{Kind: ApproximateValues, Fraction: frac,
		Detail: fmt.Sprintf("with %d mantissa bits, %s pattern emerges around %s (%.1f%% of accesses)",
			d.cfg.ApproxMantissaBits, kind, best.Format(), 100*frac)}, true
}
