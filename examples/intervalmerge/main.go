// Interval-merge demo (paper §6.1, Figure 4): merge the accessed-address
// intervals of a simulated kernel with the data-parallel algorithm and
// compare it against the sequential baseline — the optimization that lets
// ValueExpert digest streamcluster-scale access streams (3.4e7 intervals
// per kernel) without drowning in GPU→CPU traffic.
//
//	go run ./examples/intervalmerge [-n 4000000]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"valueexpert"
	"valueexpert/gpu"
)

func main() {
	n := flag.Int("n", 4_000_000, "number of input intervals")
	workers := flag.Int("workers", 0, "merge parallelism (0 = all CPUs)")
	flag.Parse()

	// A streamcluster-like access stream: long coalesced runs punctuated
	// by scattered accesses.
	rng := rand.New(rand.NewSource(7))
	ivs := make([]valueexpert.Interval, *n)
	for i := range ivs {
		var s uint64
		if i%8 == 0 {
			s = rng.Uint64() % (1 << 30)
		} else {
			s = ivs[i-1].Start + 4
		}
		ivs[i] = valueexpert.Interval{Start: s, End: s + 4}
	}

	t0 := time.Now()
	seq := valueexpert.MergeIntervalsSequential(ivs)
	seqTime := time.Since(t0)

	t0 = time.Now()
	par := valueexpert.MergeIntervals(ivs, *workers)
	parTime := time.Since(t0)

	if len(seq) != len(par) {
		panic("parallel and sequential merges disagree")
	}
	var covered uint64
	for _, iv := range par {
		covered += iv.Len()
	}
	fmt.Printf("input intervals:   %d\n", *n)
	fmt.Printf("merged intervals:  %d (%.1f%% compaction), %d bytes covered\n",
		len(par), 100*(1-float64(len(par))/float64(*n)), covered)
	fmt.Printf("sequential merge:  %v\n", seqTime)
	fmt.Printf("parallel merge:    %v (%.2fx)\n", parTime, float64(seqTime)/float64(parTime))
	fmt.Println("\ncopy plans for updating the object's snapshot (Figure 5):")
	obj := valueexpert.Interval{Start: 0, End: 1 << 30}
	for _, strat := range []valueexpert.CopyStrategy{
		valueexpert.DirectCopy, valueexpert.MinMaxCopy, valueexpert.SegmentCopy, valueexpert.AdaptiveCopy,
	} {
		plan := valueexpert.PlanCopy(gpu.RTX2080Ti, strat, obj, par)
		var bytes uint64
		for _, iv := range plan {
			bytes += iv.Len()
		}
		fmt.Printf("  %-9s %8d copy call(s), %d bytes\n", strat, len(plan), bytes)
	}
}
