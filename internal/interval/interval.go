// Package interval implements the accessed-memory-range machinery of
// paper §6.1: intervals describing the addresses touched by GPU
// instructions, a sequential merge baseline, the data-parallel interval
// merge of Figure 4, and the three snapshot copy strategies of Figure 5
// with the adaptive policy that runs whichever plan the device's copy
// cost (gpu.Profile.CopyCost) prices lower.
package interval

import (
	"fmt"
	"sort"

	"valueexpert/gpu"
	"valueexpert/internal/parallel"
	"valueexpert/internal/telemetry"
)

// Interval is a half-open byte range [Start, End). Adjacent intervals
// ([a,b) and [b,c)) are considered mergeable, matching the paper's
// "adjacent or overlapped" rule.
type Interval struct {
	Start, End uint64
}

// Len returns the interval's size in bytes.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// Valid reports whether the interval is non-empty and well formed.
func (iv Interval) Valid() bool { return iv.Start < iv.End }

// String formats the interval as [start,end).
func (iv Interval) String() string { return fmt.Sprintf("[%#x,%#x)", iv.Start, iv.End) }

// Contains reports whether addr lies inside the interval.
func (iv Interval) Contains(addr uint64) bool { return addr >= iv.Start && addr < iv.End }

// Overlaps reports whether two intervals share at least one byte or touch.
func (iv Interval) Overlaps(o Interval) bool { return iv.Start <= o.End && o.Start <= iv.End }

// FromAccess converts one memory access record (scalar or compacted
// range) to its byte interval.
func FromAccess(a gpu.Access) Interval {
	return Interval{Start: a.Addr, End: a.Addr + a.Bytes()}
}

// TotalBytes sums the lengths of the intervals (assumed disjoint).
func TotalBytes(ivs []Interval) uint64 {
	var n uint64
	for _, iv := range ivs {
		n += iv.Len()
	}
	return n
}

// MergeSequential merges overlapping and adjacent intervals with the
// classic sort-and-sweep, the O(N log N) CPU baseline the paper compares
// against ("one could copy all intervals from the GPU to the CPU and
// perform a sequential interval merge"). The input slice is not modified.
func MergeSequential(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	result := make([]Interval, len(out))
	copy(result, out)
	return result
}

// Merger runs the parallel interval merge of Figure 4 on a worker pool
// standing in for the data-processing GPU kernel.
type Merger struct {
	pool   *parallel.Pool
	probes MergeProbes
}

// MergeProbes are the merger's telemetry hooks: merge time plus input
// and output interval volumes, which together show how much the
// Figure 4 "data processing kernel" compacts. Nil fields no-op.
type MergeProbes struct {
	Time   *telemetry.Timer
	Input  *telemetry.Counter
	Output *telemetry.Counter
}

// SetProbes attaches telemetry probes to the merger.
func (m *Merger) SetProbes(p MergeProbes) { m.probes = p }

// NewMerger creates a merger with the given parallelism (<=0 selects the
// pool default).
func NewMerger(workers int) *Merger {
	return &Merger{pool: parallel.NewPool(workers)}
}

// Pool exposes the merger's worker pool so other analysis stages (snapshot
// diffing, copy-plan application) can share its degree of parallelism.
func (m *Merger) Pool() *parallel.Pool { return m.pool }

// MergeParallel merges overlapping and adjacent intervals using the
// paper's algorithm (Figure 4):
//
//  1. lexicographically sort all (address, isEnd) pairs so an end sorts
//     after a start at the same address;
//  2. mark interval starts +1 and ends −1;
//  3. parallel prefix scan: merged starts are positions where the running
//     sum is 1 at a start marker, merged ends where it reaches 0;
//  4. parallel prefix scans over the start/end flags yield output slots;
//  5. scatter the merged boundaries into the output buffer.
//
// Addresses must fit in 63 bits (true for all device addresses).
func (m *Merger) MergeParallel(ivs []Interval) []Interval {
	n := len(ivs)
	if n == 0 {
		return nil
	}
	sw := m.probes.Time.Start()
	defer sw.Stop()
	m.probes.Input.Add(uint64(n))

	// Step 1: build and sort (address, isEnd) keys. The low bit is the
	// isEnd flag, so starts sort before ends at equal addresses and the
	// running depth never touches zero between an end and a coincident or
	// adjacent start — which is exactly what merges adjacency.
	keys := make([]uint64, 2*n)
	m.pool.For(n, func(i int) {
		keys[2*i] = ivs[i].Start << 1
		keys[2*i+1] = ivs[i].End<<1 | 1
	})
	m.pool.RadixSortUint64(keys)

	// Step 2: ±1 markers.
	markers := make([]int64, 2*n)
	m.pool.For(2*n, func(i int) {
		if keys[i]&1 == 0 {
			markers[i] = 1
		} else {
			markers[i] = -1
		}
	})

	// Step 3: prefix scan of markers = nesting depth after each event.
	m.pool.InclusiveScan(markers)

	// Step 4: flag merged starts (depth 1 at a start) and merged ends
	// (depth 0, which only happens at ends).
	startFlags := make([]int64, 2*n)
	endFlags := make([]int64, 2*n)
	m.pool.For(2*n, func(i int) {
		if keys[i]&1 == 0 && markers[i] == 1 {
			startFlags[i] = 1
		}
		if markers[i] == 0 {
			endFlags[i] = 1
		}
	})

	// Steps 5–7: exclusive scans give each merged boundary its output slot.
	nMerged := m.pool.ExclusiveScan(startFlags)
	m.pool.ExclusiveScan(endFlags)

	// Steps 8–9: scatter.
	m.probes.Output.Add(uint64(nMerged))
	out := make([]Interval, nMerged)
	m.pool.For(2*n, func(i int) {
		addr := keys[i] >> 1
		if keys[i]&1 == 0 {
			// A merged start has depth 1 here and flag scans assigned slot
			// startFlags[i] (exclusive scan value at the flagged position).
			if markers[i] == 1 {
				out[startFlags[i]].Start = addr
			}
		} else if markers[i] == 0 {
			out[endFlags[i]].End = addr
		}
	})
	return out
}
