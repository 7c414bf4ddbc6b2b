// Package workloads contains miniature, self-contained reproductions of
// the benchmarks and applications the paper evaluates (Table 1/3): the
// Rodinia suite plus Darknet, PyTorch models, Castro, BarraCUDA,
// QMCPACK, NAMD, and LAMMPS. Each reproduction runs on the simulated CUDA
// runtime and exhibits the same value patterns, for the same structural
// reasons, as the original application — and carries an Optimized variant
// applying the paper's fix (typically the "less than five lines of code
// changes" described in §7/§8).
//
// Because the real applications and their inputs are unavailable in this
// environment, inputs are synthesized with fixed seeds so the value
// behaviour (zeros where the original had zeros, small ranges where the
// original had small ranges) matches the paper's observations. DESIGN.md
// documents each substitution.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"valueexpert/cuda"
	"valueexpert/internal/vpattern"
)

// Variant selects the as-published code or the paper's optimized version.
type Variant int

// Variants.
const (
	Original Variant = iota
	Optimized
)

// String names the variant.
func (v Variant) String() string {
	if v == Optimized {
		return "optimized"
	}
	return "original"
}

// Workload is one reproducible application.
type Workload interface {
	// Name is the application name used in tables.
	Name() string
	// Run executes one measurement iteration on rt.
	Run(rt *cuda.Runtime, v Variant) error
	// HotKernels names the kernels whose execution time Table 3 reports;
	// empty means the optimization targets memory operations only.
	HotKernels() []string
	// ExpectedPatterns is the application's Table 1 row.
	ExpectedPatterns() []vpattern.Kind
	// OptimizedPattern names the pattern(s) the optimization exploits
	// (Table 4 rows).
	OptimizedPatterns() []vpattern.Kind
}

// registry holds one constructor per workload, in Table 1 order.
var registry []func(size) Workload

func register(ctor func(size) Workload) { registry = append(registry, ctor) }

// All returns every workload in Table 1 order, sized at scale.
func All(scale int) []Workload {
	out := make([]Workload, len(registry))
	for i, ctor := range registry {
		out[i] = ctor(size{scale})
	}
	return out
}

// Lookup finds a workload by name, sized at scale.
func Lookup(name string, scale int) (Workload, error) {
	var names []string
	for _, w := range All(scale) {
		if w.Name() == name {
			return w, nil
		}
		names = append(names, w.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, names)
}

// Scale and ByName exist only for the bench/ module, whose harness sets
// Scale and then looks a workload up by name; everything else passes
// its scale to All or Lookup.
var Scale = 1

// ByName is Lookup at Scale; it exists only for bench/.
func ByName(name string) (Workload, error) { return Lookup(name, Scale) }

// rng returns a deterministic source per workload so value behaviour is
// reproducible run to run.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// size is a workload's problem-size divisor: 1 is full size, larger
// values shrink the problem uniformly for fast runs. It must be ≥ 1.
// Every workload embeds it, so its size travels with the value.
type size struct{ scale int }

// scaled divides n by the workload's scale, never below 32.
func (z size) scaled(n int) int {
	s := n / z.scale
	if s < 32 {
		s = 32
	}
	return s
}
