package interval

import "time"

// CopyStrategy selects how a data object's accessed values are copied from
// device to host to update its snapshot (Figure 5).
type CopyStrategy uint8

// Copy strategies.
const (
	// DirectCopy copies the whole data object regardless of what was
	// accessed (Figure 5a).
	DirectCopy CopyStrategy = iota
	// MinMaxCopy copies one range spanning the minimum and maximum
	// accessed addresses (Figure 5b).
	MinMaxCopy
	// SegmentCopy copies each merged accessed interval separately
	// (Figure 5c).
	SegmentCopy
	// AdaptiveCopy picks SegmentCopy when the accessed intervals are few
	// and sparse, and MinMaxCopy when they are dense or numerous (§6.1).
	AdaptiveCopy
)

// String names the strategy.
func (s CopyStrategy) String() string {
	switch s {
	case DirectCopy:
		return "direct"
	case MinMaxCopy:
		return "min-max"
	case SegmentCopy:
		return "segment"
	case AdaptiveCopy:
		return "adaptive"
	}
	return "unknown"
}

// Adaptive policy parameters: SegmentCopy is preferred only while the
// per-call latency of many small copies stays below the bandwidth cost of
// the bytes min-max would copy needlessly.
const (
	// adaptiveMaxSegments caps the number of copy calls segment copy may
	// issue before the per-call latency dominates.
	adaptiveMaxSegments = 64
	// adaptiveDensity is the covered-bytes/span ratio above which the
	// accessed region is "dense" and one min-max copy is cheaper.
	adaptiveDensity = 0.5
)

// PlanCopy returns the byte ranges to copy for a data object spanning obj,
// given the merged accessed intervals (sorted, disjoint), and the concrete
// strategy the plan executes under: AdaptiveCopy resolves to the
// SegmentCopy/MinMaxCopy choice its policy makes for these intervals
// (§6.1); every other strategy is itself. The returned ranges are clipped
// to obj.
func PlanCopy(strategy CopyStrategy, obj Interval, merged []Interval) ([]Interval, CopyStrategy) {
	if strategy == DirectCopy {
		return []Interval{obj}, DirectCopy
	}
	clipped := clip(obj, merged)
	if strategy == AdaptiveCopy {
		strategy = SegmentCopy
		if len(clipped) > adaptiveMaxSegments || density(clipped) > adaptiveDensity {
			strategy = MinMaxCopy
		}
	}
	if strategy == MinMaxCopy && len(clipped) > 0 {
		return []Interval{{Start: clipped[0].Start, End: clipped[len(clipped)-1].End}}, MinMaxCopy
	}
	return clipped, strategy
}

// density is coveredBytes / span over the merged intervals.
func density(merged []Interval) float64 {
	if len(merged) == 0 {
		return 0
	}
	span := merged[len(merged)-1].End - merged[0].Start
	if span == 0 {
		return 0
	}
	return float64(TotalBytes(merged)) / float64(span)
}

// Clip restricts merged intervals to the object bounds, dropping empties.
func Clip(obj Interval, merged []Interval) []Interval { return clip(obj, merged) }

// Chunks cuts sorted, disjoint intervals into chunks of exactly maxBytes
// in total, the last one possibly smaller, preserving order and coverage:
// long intervals are cut at chunk boundaries and short ones packed
// together. It is the chunking step that spreads a large snapshot refresh
// over a worker pool while a small plan, however scattered, stays one
// chunk. maxBytes must be positive.
func Chunks(ivs []Interval, maxBytes uint64) [][]Interval {
	var out [][]Interval
	fill := maxBytes
	for _, iv := range ivs {
		for iv.Valid() {
			if fill == maxBytes {
				out, fill = append(out, nil), 0
			}
			piece := Interval{Start: iv.Start, End: iv.Start + min(iv.Len(), maxBytes-fill)}
			out[len(out)-1] = append(out[len(out)-1], piece)
			fill += piece.Len()
			iv.Start = piece.End
		}
	}
	return out
}

// clip restricts merged intervals to the object bounds, dropping empties.
func clip(obj Interval, merged []Interval) []Interval {
	var out []Interval
	for _, iv := range merged {
		s, e := iv.Start, iv.End
		if s < obj.Start {
			s = obj.Start
		}
		if e > obj.End {
			e = obj.End
		}
		if s < e {
			out = append(out, Interval{Start: s, End: e})
		}
	}
	return out
}

// CopyCostModel prices a copy plan: each range pays a fixed per-call
// latency plus bytes/bandwidth. This is the quantity the adaptive policy
// minimizes and the overhead accounting charges for snapshot maintenance.
type CopyCostModel struct {
	PerCall   time.Duration
	Bandwidth float64 // bytes per second
}

// Cost prices a plan under the model.
func (m CopyCostModel) Cost(plan []Interval) time.Duration {
	var t time.Duration
	for _, iv := range plan {
		t += m.PerCall + time.Duration(float64(iv.Len())/m.Bandwidth*float64(time.Second))
	}
	return t
}
