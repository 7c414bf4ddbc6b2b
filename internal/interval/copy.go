package interval

import (
	"time"

	"valueexpert/gpu"
)

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
	// AdaptiveCopy runs whichever of the MinMaxCopy and SegmentCopy plans
	// the device prices lower (PlanCost), MinMaxCopy on a tie (§6.1).
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

// PlanCopy returns the byte ranges to copy for a data object spanning obj,
// given the merged accessed intervals (sorted, disjoint), and the concrete
// strategy the plan executes under. AdaptiveCopy resolves to SegmentCopy
// when prof prices the segment plan strictly below the min-max plan, and
// to MinMaxCopy otherwise (§6.1); every other strategy is itself. The
// returned ranges are clipped to obj.
func PlanCopy(prof gpu.Profile, strategy CopyStrategy, obj Interval, merged []Interval) ([]Interval, CopyStrategy) {
	if strategy == DirectCopy {
		return []Interval{obj}, DirectCopy
	}
	segments := Clip(obj, merged)
	if strategy == SegmentCopy {
		return segments, SegmentCopy
	}
	var minmax []Interval
	if len(segments) > 0 {
		minmax = []Interval{{Start: segments[0].Start, End: segments[len(segments)-1].End}}
	}
	if strategy == AdaptiveCopy && PlanCost(prof, segments) < PlanCost(prof, minmax) {
		return segments, SegmentCopy
	}
	return minmax, MinMaxCopy
}

// PlanCost prices a copy plan on prof: one device-to-host copy call per
// range (gpu.Profile.CopyCost). The adaptive policy minimizes it, and the
// profiler charges it as a snapshot refresh's simulated copy time.
func PlanCost(prof gpu.Profile, plan []Interval) time.Duration {
	var t time.Duration
	for _, iv := range plan {
		t += prof.CopyCost(iv.Len(), gpu.CopyDeviceToHost)
	}
	return t
}

// Clip restricts merged intervals to the object bounds, dropping empties.
func Clip(obj Interval, merged []Interval) []Interval {
	var out []Interval
	for _, iv := range merged {
		s, e := max(iv.Start, obj.Start), min(iv.End, obj.End)
		if s < e {
			out = append(out, Interval{Start: s, End: e})
		}
	}
	return out
}

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
