package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// the command prints it: fewer, and the percentile is one or two
// outliers rather than a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs: the
// smallest sample with at least q·n samples at or below it. A percentile
// above the median is refused when fewer than minBeyond samples lie
// beyond its rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of n=%d", 100*q, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// p50 is the nearest-rank median; it is never refused.
func p50(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

// median is the midpoint median across runs (the mean of the two middle
// values when n is even), the one the spread below is relative to.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)). It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles of per-run values as a
// share of their median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// The machine this runs on changes speed from minute to minute as other
// tenants contend for its cores, caches and memory; the simulator and
// the profiler slow by up to 40%. A fixed, memory-bound calibration loop
// that shares no code with the program — random updates to a map far
// larger than the caches — slows the same way. Every timed call is
// preceded by one calibration, and a sample is normalized by the mean of
// the calibrations just before and just after it: times are reported
// scaled by calRef/cal, so they read as milliseconds on a machine where
// the loop takes calRef.
const (
	calKeys    = 1 << 17
	calUpdates = 200_000
	calRef     = 10.0 // ms
)

// calibrate runs n updates of the calibration loop on m and returns
// their time in ms.
func calibrate(m map[uint64]uint64, n int) float64 {
	start := time.Now()
	clear(m)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&(calKeys-1)] += x
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// sample is one timed call: its duration and the calibration time
// around it, both in ms.
type sample struct{ ms, cal float64 }

// norm is the sample's duration at the reference machine speed.
func (s sample) norm() float64 { return s.ms * calRef / s.cal }

func normalized(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.norm()
	}
	return out
}

func durations(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// typical is a span's representative time: its median normalized
// duration.
func typical(xs []sample) float64 { return p50(normalized(xs)) }

// overhead is overhead_x for a live or replay workload: the fast tail
// (p10) of the op's raw times over that of the native runs, both from the
// same run. Contention from other tenants only ever adds time, and it
// slows the native simulator more than the profiled run, so a ratio of
// medians sinks whenever a run shares the machine; the fastest tenth of
// each comes from the moments the machine was quiet.
func overhead(op, native []sample) float64 {
	fast := func(xs []sample) float64 {
		v, err := percentile(durations(xs), 0.1)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	return fast(op) / fast(native)
}
