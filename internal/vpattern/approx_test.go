package vpattern

import (
	"fmt"
	"math/rand"
	"testing"

	"valueexpert/gpu"
)

// refApproxKind marks the reference detector's matches so they can sit
// in one report next to the derived detector's.
const refApproxKind Kind = 0xF0

// refApproxDetector is the per-access approximate-values detector the
// derived one replaced, kept as the oracle: it inserts the truncation of
// every float access into its own capped per-object histogram.
type refApproxDetector struct {
	cfg  FineConfig
	objs Table[valueHist]
}

func newRefApproxDetector(cfg FineConfig) Detector { return &refApproxDetector{cfg: cfg} }

func (d *refApproxDetector) Reset() { d.objs.Reset((*valueHist).reset) }

func (d *refApproxDetector) Observe(objID int, a gpu.Access) {
	if a.Kind != gpu.KindFloat {
		return
	}
	h, _ := d.objs.At(objID)
	v := Value{Raw: a.Raw, Size: a.Size, Kind: a.Kind}
	h.add(v.Truncate(d.cfg.ApproxMantissaBits), 1, d.cfg.MaxTrackedValues)
}

func (d *refApproxDetector) Finalize(objID int, sh *ObjectShared) (Match, bool) {
	h := d.objs.Get(objID)
	if h == nil || h.len() == 0 {
		return Match{}, false
	}
	if _, single := sh.Single(); single {
		return Match{}, false
	}
	var best Value
	var bestCnt uint64
	for _, e := range h.entries {
		if e.Count > bestCnt {
			best, bestCnt = e.Value, e.Count
		}
	}
	total := sh.Accesses()
	frac := float64(bestCnt) / float64(total)
	exactTop := uint64(0)
	for _, e := range sh.Values() {
		if e.Count > exactTop {
			exactTop = e.Count
		}
	}
	exactFrac := float64(exactTop) / float64(total)
	if frac < d.cfg.FrequentThreshold || exactFrac >= d.cfg.FrequentThreshold {
		return Match{}, false
	}
	kind := "frequent values"
	if h.len() == 1 {
		kind = "single value"
	}
	return Match{Kind: refApproxKind, Fraction: frac,
		Detail: fmt.Sprintf("with %d mantissa bits, %s pattern emerges around %s (%.1f%% of accesses)",
			d.cfg.ApproxMantissaBits, kind, best.Format(), 100*frac)}, true
}

// approxOracleLineup is the default lineup plus the reference detector.
func approxOracleLineup() []Registration {
	return append(FineDetectors(nil), Registration{
		Kind: refApproxKind, Name: "reference approximate values", Grain: GrainFine,
		New: newRefApproxDetector,
	})
}

// randApproxStream draws a stream whose floats cluster around a few
// centers with fine jitter, so truncating to a handful of mantissa bits
// collapses many distinct exact values — the shape approximate values
// detect — mixed with float64s, ints and exactly repeated floats that
// move the exact histogram's top share and saturate small caps.
func randApproxStream(rng *rand.Rand, n int) ([]gpu.Access, func(i int) int) {
	centers := []float64{1, 1.5, -3, 0.1, 1000, 6e-5}
	nc := 1 + rng.Intn(3)
	spread := []float64{1e-6, 1e-3, 0.02, 0.3}[rng.Intn(4)]
	steps := 1 + rng.Intn(80)
	nObj := 1 + rng.Intn(3)
	accs := make([]gpu.Access, n)
	objs := make([]int, n)
	for i := range accs {
		c := centers[rng.Intn(nc)]
		f := c * (1 + spread*float64(rng.Intn(steps))/float64(steps))
		a := gpu.Access{Addr: uint64(rng.Intn(1 << 10)), Store: rng.Intn(2) == 0}
		switch r := rng.Intn(20); {
		case r < 11:
			a.Size, a.Kind, a.Raw = 4, gpu.KindFloat, gpu.RawFromFloat32(float32(f))
		case r < 16:
			a.Size, a.Kind, a.Raw = 8, gpu.KindFloat, gpu.RawFromFloat64(f)
		case r < 18:
			a.Size, a.Kind, a.Raw = 4, gpu.KindInt, uint64(rng.Intn(steps))
		default:
			a.Size, a.Kind, a.Raw = 4, gpu.KindFloat, gpu.RawFromFloat32(float32(c))
		}
		a.Addr *= uint64(a.Size)
		accs[i] = a
		objs[i] = rng.Intn(nObj)
	}
	return accs, func(i int) int { return objs[i] }
}

// approxMatches pairs each report's derived and reference matches.
type approxPair struct {
	derived, ref Match
	dOK, rOK     bool
	saturated    bool
}

func approxMatches(reps []FineReport) []approxPair {
	out := make([]approxPair, len(reps))
	for i, r := range reps {
		out[i].derived, out[i].dOK = r.Pattern(ApproximateValues)
		out[i].ref, out[i].rOK = r.Pattern(refApproxKind)
		out[i].saturated = r.Saturated
	}
	return out
}

// TestDerivedApproxMatchesPerAccessOracle: approximate values derived at
// Finalize from the shared histogram (plus its relaxed-overflow
// histogram past saturation) must match what the per-access reference
// detector finds — same firing, fraction and detail — on every object.
// Caps of 1–40 put saturation into play on most objects.
func TestDerivedApproxMatchesPerAccessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	regs := approxOracleLineup()
	fired, firedSaturated := 0, 0
	for trial := 0; trial < 2000; trial++ {
		cfg := FineConfig{
			MaxTrackedValues:   1 + rng.Intn(40),
			ApproxMantissaBits: 1 + rng.Intn(4),
		}
		accs, objOf := randApproxStream(rng, 30+rng.Intn(200))

		seq := NewFineAccumulatorWith(cfg, regs)
		for i, a := range accs {
			seq.Add(objOf(i), a)
		}
		feeds := map[string][]FineReport{"sequential": seq.Finalize()}
		for feed, reps := range feeds {
			for _, p := range approxMatches(reps) {
				if p.dOK != p.rOK || p.derived.Fraction != p.ref.Fraction || p.derived.Detail != p.ref.Detail {
					t.Fatalf("trial %d (%s, cap %d, %d bits): derived %v %+v, reference %v %+v",
						trial, feed, cfg.MaxTrackedValues, cfg.ApproxMantissaBits, p.dOK, p.derived, p.rOK, p.ref)
				}
				if feed == "sequential" && p.dOK {
					fired++
					if p.saturated {
						firedSaturated++
					}
				}
			}
		}
	}
	t.Logf("%d approximate matches, %d on saturated objects", fired, firedSaturated)
	if firedSaturated == 0 {
		t.Fatal("no approximate match fired on a saturated object: the relaxed-overflow path went unchecked")
	}
}
