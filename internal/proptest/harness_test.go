package proptest

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"valueexpert/internal/workloads"
)

// TestDifferentialHarness runs CheckSeed over a seed range. The range is
// VX_PROPTEST_SEEDS consecutive seeds (default 10 — the CI smoke run;
// `make proptest` sets 200). VX_PROPTEST_SEED pins a single seed, which
// is how a failure reported by the harness is reproduced.
func TestDifferentialHarness(t *testing.T) {
	if s := os.Getenv("VX_PROPTEST_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("VX_PROPTEST_SEED=%q: %v", s, err)
		}
		checkOne(t, seed)
		return
	}
	n := 10
	if s := os.Getenv("VX_PROPTEST_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("VX_PROPTEST_SEEDS=%q: want a positive integer", s)
		}
		n = v
	}
	for seed := int64(0); seed < int64(n); seed++ {
		checkOne(t, seed)
		if t.Failed() {
			return // first failing seed is enough; its repro line is printed
		}
	}
}

func checkOne(t *testing.T, seed int64) {
	t.Helper()
	if err := CheckSeed(seed); err != nil {
		t.Errorf("seed %d: %v\nreproduce: VX_PROPTEST_SEED=%d go test -race ./internal/proptest -run TestDifferentialHarness", seed, err, seed)
	}
}

// TestCheckSeedCatchesSilentDivergence guards the harness itself: a seed
// whose runs are compared against a corrupted baseline must fail, proving
// the byte comparison has teeth.
func TestCheckSeedCatchesSilentDivergence(t *testing.T) {
	out, err := runLive(workloads.RandomProgram{Seed: 1, Tolerant: true}, nil, cfg())
	if err != nil {
		t.Fatal(err)
	}
	other, err := runLive(workloads.RandomProgram{Seed: 2, Tolerant: true}, nil, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if string(out.report) == string(other.report) {
		t.Fatal("different seeds produced identical reports; generator is degenerate")
	}
}

func ExampleCheckSeed() {
	fmt.Println(CheckSeed(0) == nil)
	// Output: true
}
