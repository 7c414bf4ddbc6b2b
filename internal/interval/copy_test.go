package interval

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"valueexpert/gpu"
)

// figure5Object is the 64 MiB object Figure 5's shapes are drawn in.
var figure5Object = Interval{0, 64 << 20}

// figure5Shapes are the three access mixes BenchmarkFigure5CopyStrategies
// prices, plus a bfs-like frontier: many 4-byte writes with small gaps,
// where each extra call's latency outweighs the gap bytes it saves.
func figure5Shapes() map[string][]Interval {
	var dense, fragmented, frontier []Interval
	for i := 0; i < 200; i++ {
		s := uint64(i * 320 << 10)
		dense = append(dense, Interval{s, s + 256<<10})
	}
	for i := 0; i < 5000; i++ {
		s := uint64(i * 12800)
		fragmented = append(fragmented, Interval{s, s + 64})
	}
	for i := 0; i < 400; i++ {
		s := uint64(i * 64)
		frontier = append(frontier, Interval{s, s + 4})
	}
	return map[string][]Interval{
		"sparse":     {{0, 4096}, {32 << 20, 32<<20 + 4096}},
		"dense":      dense,
		"fragmented": fragmented,
		"frontier":   frontier,
	}
}

// plan is PlanCopy's plan alone.
func plan(prof gpu.Profile, strategy CopyStrategy, obj Interval, merged []Interval) []Interval {
	p, _ := PlanCopy(prof, strategy, obj, merged)
	return p
}

func TestPlanCopyStrategies(t *testing.T) {
	obj := Interval{1000, 2000}
	merged := []Interval{{1000, 1010}, {1500, 1510}, {1980, 1990}}
	dense := []Interval{{1000, 1400}, {1410, 1800}}
	var many []Interval
	for i := 0; i < 200; i++ {
		s := uint64(1000 + 5*i)
		many = append(many, Interval{s, s + 1})
	}
	sparse := figure5Shapes()["sparse"]
	for _, c := range []struct {
		name     string
		strategy CopyStrategy
		obj      Interval
		merged   []Interval
		want     []Interval
		resolved CopyStrategy
	}{
		{"direct", DirectCopy, obj, merged, []Interval{obj}, DirectCopy},
		{"min-max", MinMaxCopy, obj, merged, []Interval{{1000, 1990}}, MinMaxCopy},
		{"segment", SegmentCopy, obj, merged, merged, SegmentCopy},
		// Two 4 KiB ranges 32 MiB apart (Figure 5's sparse shape): a
		// second call's latency costs less than moving the gap, so
		// adaptive picks segment.
		{"adaptive sparse", AdaptiveCopy, figure5Object, sparse, sparse, SegmentCopy},
		// Three 10-byte ranges in 1,000 bytes: moving the gaps costs less
		// than two more calls, so adaptive picks min-max.
		{"adaptive near", AdaptiveCopy, obj, merged, []Interval{{1000, 1990}}, MinMaxCopy},
		{"adaptive dense", AdaptiveCopy, obj, dense, []Interval{{1000, 1800}}, MinMaxCopy},
		{"adaptive many", AdaptiveCopy, obj, many, []Interval{{1000, 1996}}, MinMaxCopy},
	} {
		got, resolved := PlanCopy(gpu.RTX2080Ti, c.strategy, c.obj, c.merged)
		if !eq(got, c.want) || resolved != c.resolved {
			t.Errorf("%s = %v under %v, want %v under %v", c.name, got, resolved, c.want, c.resolved)
		}
	}
}

func TestPlanCopyClipsToObject(t *testing.T) {
	prof := gpu.RTX2080Ti
	obj := Interval{1000, 2000}
	merged := []Interval{{900, 1100}, {1900, 2100}, {5000, 6000}}
	got := plan(prof, SegmentCopy, obj, merged)
	want := []Interval{{1000, 1100}, {1900, 2000}}
	if !eq(got, want) {
		t.Fatalf("clipped plan = %v, want %v", got, want)
	}
	if got := plan(prof, MinMaxCopy, obj, []Interval{{5000, 6000}}); got != nil {
		t.Fatalf("fully-outside plan = %v, want nil", got)
	}
	if got := plan(prof, AdaptiveCopy, obj, nil); got != nil {
		t.Fatalf("empty adaptive plan = %v, want nil", got)
	}
}

func TestCopyCostPrefersRightStrategy(t *testing.T) {
	obj := Interval{0, 1 << 20}
	// Sparse case: a handful of small accesses; segment must beat direct.
	sparse := []Interval{{0, 64}, {1 << 19, 1<<19 + 64}}
	// Many-fragment case: min-max must beat segment.
	var many []Interval
	for i := 0; i < 4096; i++ {
		s := uint64(256 * i)
		many = append(many, Interval{s, s + 8})
	}
	for _, prof := range gpu.Profiles() {
		cost := func(s CopyStrategy, merged []Interval) time.Duration {
			return PlanCost(prof, plan(prof, s, obj, merged))
		}
		// A plan pays one device-to-host call per range.
		if got, want := cost(SegmentCopy, sparse), 2*prof.CopyCost(64, gpu.CopyDeviceToHost); got != want {
			t.Fatalf("%s: sparse segment plan costs %v, want %v", prof.Name, got, want)
		}
		if cost(SegmentCopy, sparse) >= cost(DirectCopy, sparse) {
			t.Fatalf("%s: segment copy should win on sparse accesses", prof.Name)
		}
		if cost(MinMaxCopy, many) >= cost(SegmentCopy, many) {
			t.Fatalf("%s: min-max copy should win on fragmented accesses", prof.Name)
		}
		for _, merged := range [][]Interval{sparse, many} {
			ad, best := cost(AdaptiveCopy, merged), min(cost(SegmentCopy, merged), cost(MinMaxCopy, merged))
			if ad != best {
				t.Fatalf("%s: adaptive cost %v, best fixed strategy %v", prof.Name, ad, best)
			}
		}
	}
}

// randomPlanInput draws an object and a sorted, separated interval list
// whose gaps and lengths are log-uniform, so both segment and min-max
// win often, and single-interval ties occur.
func randomPlanInput(rng *rand.Rand) (Interval, []Interval) {
	var merged []Interval
	at := uint64(0)
	for n := rng.Intn(24); len(merged) < n; {
		at += 1 + uint64(rng.Int63n(1<<rng.Intn(27)))
		end := at + 1 + uint64(rng.Int63n(1<<rng.Intn(20)))
		merged = append(merged, Interval{at, end})
		at = end
	}
	obj := Interval{Start: uint64(rng.Int63n(int64(at/4 + 1)))}
	obj.End = max(obj.Start+1, at+2-uint64(rng.Int63n(int64(at/4+1))))
	return obj, merged
}

// TestAdaptivePicksCheaperPlan: on random interval sets, under both
// evaluation devices, adaptive copy costs exactly the lower of the
// min-max and segment plans, and a tie resolves to min-max.
func TestAdaptivePicksCheaperPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, prof := range gpu.Profiles() {
		var segment, minmax, ties int
		for trial := 0; trial < 2000; trial++ {
			obj, merged := randomPlanInput(rng)
			mm := PlanCost(prof, plan(prof, MinMaxCopy, obj, merged))
			seg := PlanCost(prof, plan(prof, SegmentCopy, obj, merged))
			want := MinMaxCopy
			switch {
			case seg < mm:
				want = SegmentCopy
				segment++
			case seg == mm:
				ties++
			default:
				minmax++
			}
			got, resolved := PlanCopy(prof, AdaptiveCopy, obj, merged)
			if resolved != want || !eq(got, plan(prof, want, obj, merged)) {
				t.Fatalf("%s: adaptive on %v in %v resolved to %v (min-max %v, segment %v), want %v",
					prof.Name, merged, obj, resolved, mm, seg, want)
			}
			if cost := PlanCost(prof, got); cost != min(mm, seg) {
				t.Fatalf("%s: adaptive costs %v, min-max %v, segment %v", prof.Name, cost, mm, seg)
			}
		}
		if segment == 0 || minmax == 0 || ties == 0 {
			t.Fatalf("%s: inputs exercised segment %d, min-max %d, tie %d times", prof.Name, segment, minmax, ties)
		}
	}
}

// encodePlanInput is decodePlanInput's inverse for sorted, separated
// intervals.
func encodePlanInput(ivs []Interval) []byte {
	var out []byte
	at := uint64(0)
	for _, iv := range ivs {
		out = binary.LittleEndian.AppendUint32(out, uint32(iv.Start-at))
		out = binary.LittleEndian.AppendUint32(out, uint32(iv.Len()-1))
		at = iv.End + 1
	}
	return out
}

// decodePlanInput turns fuzz bytes into a sorted interval list separated
// by at least one byte, the form the parallel merge produces: each 8
// bytes are a gap and a length less one, little-endian uint32s.
func decodePlanInput(data []byte) []Interval {
	var ivs []Interval
	at := uint64(0)
	for ; len(data) >= 8; data = data[8:] {
		at += uint64(binary.LittleEndian.Uint32(data))
		end := at + 1 + uint64(binary.LittleEndian.Uint32(data[4:]))
		ivs = append(ivs, Interval{at, end})
		at = end + 1
	}
	return ivs
}

// FuzzPlanCopy: under every strategy and either device, the plan lies
// inside the object and covers every accessed byte of it, and adaptive
// costs no more than either fixed plan.
func FuzzPlanCopy(f *testing.F) {
	for _, shape := range figure5Shapes() {
		f.Add(encodePlanInput(shape), uint32(figure5Object.Start), uint32(figure5Object.Len()-1), false)
		f.Add(encodePlanInput(shape), uint32(4096), uint32(1<<20), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, objStart, objLen uint32, a100 bool) {
		prof := gpu.RTX2080Ti
		if a100 {
			prof = gpu.A100
		}
		merged := decodePlanInput(data)
		obj := Interval{uint64(objStart), uint64(objStart) + 1 + uint64(objLen)}
		need := Intersect(merged, []Interval{obj})
		var cost [AdaptiveCopy + 1]time.Duration
		for _, st := range []CopyStrategy{DirectCopy, MinMaxCopy, SegmentCopy, AdaptiveCopy} {
			p := plan(prof, st, obj, merged)
			for i, iv := range p {
				if !iv.Valid() || iv.Start < obj.Start || iv.End > obj.End || (i > 0 && iv.Start < p[i-1].End) {
					t.Fatalf("%v plan %v is unsorted or leaves object %v", st, p, obj)
				}
			}
			if TotalBytes(Intersect(need, p)) != TotalBytes(need) {
				t.Fatalf("%v plan %v misses accessed bytes %v", st, p, need)
			}
			cost[st] = PlanCost(prof, p)
		}
		if cost[AdaptiveCopy] > cost[MinMaxCopy] || cost[AdaptiveCopy] > cost[SegmentCopy] {
			t.Fatalf("adaptive costs %v, min-max %v, segment %v", cost[AdaptiveCopy], cost[MinMaxCopy], cost[SegmentCopy])
		}
	})
}

// TestChunks: chunks cover exactly the input, in order, and every chunk
// but the last holds exactly maxBytes, so a small plan is one chunk.
func TestChunks(t *testing.T) {
	if got := Chunks(nil, 8); got != nil {
		t.Fatalf("Chunks(nil) = %v, want nil", got)
	}
	small := []Interval{{0, 3}, {10, 12}, {20, 21}}
	if got := Chunks(small, 64); len(got) != 1 || !eq(got[0], small) {
		t.Fatalf("small plan = %v, want one chunk %v", got, small)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var ivs []Interval
		n := r.Intn(30)
		for at := uint64(r.Intn(50)); len(ivs) < n; at += uint64(1 + r.Intn(50)) {
			end := at + 1 + uint64(r.Intn(200))
			ivs = append(ivs, Interval{at, end})
			at = end
		}
		maxBytes := uint64(1 + r.Intn(100))
		chunks := Chunks(ivs, maxBytes)
		var flat []Interval
		for i, c := range chunks {
			if n := TotalBytes(c); n > maxBytes || (i < len(chunks)-1 && n != maxBytes) || n == 0 {
				t.Fatalf("trial %d: chunk %d of %d holds %d bytes, max %d", trial, i, len(chunks), n, maxBytes)
			}
			flat = append(flat, c...)
		}
		if !eq(MergeSequential(flat), MergeSequential(ivs)) || TotalBytes(flat) != TotalBytes(ivs) {
			t.Fatalf("trial %d: chunks %v do not cover %v", trial, chunks, ivs)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[CopyStrategy]string{
		DirectCopy: "direct", MinMaxCopy: "min-max", SegmentCopy: "segment",
		AdaptiveCopy: "adaptive", CopyStrategy(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
