package advisor

import (
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/workloads"
)

// analyzeDarknet profiles the Darknet miniature and runs the advisor.
func analyzeDarknet(t *testing.T) []Suggestion {
	t.Helper()
	w, err := workloads.Lookup("Darknet", 64)
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := core.Attach(rt, core.Config{Coarse: true, Fine: true, Program: "Darknet"})
	if err := w.Run(rt, workloads.Original); err != nil {
		t.Fatal(err)
	}
	return Analyze(p.Report(), p.Graph())
}

func TestDarknetSuggestionsCoverBothInefficiencies(t *testing.T) {
	sugs := analyzeDarknet(t)
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	// Ranked by benefit, descending.
	for i := 1; i < len(sugs); i++ {
		if sugs[i].Benefit > sugs[i-1].Benefit {
			t.Fatalf("ranking broken at %d: %d > %d", i, sugs[i].Benefit, sugs[i-1].Benefit)
		}
	}
	joined := Render(sugs, 0)
	// Inefficiency I: the fill/gemm redundant write chain.
	if !strings.Contains(joined, "fill_kernel") {
		t.Fatalf("missing fill_kernel guidance:\n%s", joined)
	}
	// Inefficiency II: uniform copies that should be memsets.
	if !strings.Contains(joined, "cudaMemset") {
		t.Fatalf("missing memset guidance:\n%s", joined)
	}
	// Duplicate tensors.
	if !strings.Contains(joined, "identical contents") {
		t.Fatalf("missing duplicate guidance:\n%s", joined)
	}
	// Fine-grained playbook entries.
	if !strings.Contains(joined, "bypass computation") && !strings.Contains(joined, "contract the array") {
		t.Fatalf("missing fine-grained guidance:\n%s", joined)
	}
	// The flow-level dead-store chain (fill -> gemm read) is detected.
	var flowFound bool
	for _, s := range sugs {
		if strings.Contains(s.Where, "flow ") && strings.Contains(s.Where, "fill_kernel") {
			flowFound = true
		}
	}
	if !flowFound {
		t.Fatalf("missing flow-level dead-store suggestion:\n%s", joined)
	}
}

func TestSuggestionAggregation(t *testing.T) {
	// The 4 layers × repeated fills must aggregate into one suggestion
	// per (API, object), not dozens of near-duplicates.
	sugs := analyzeDarknet(t)
	seen := map[string]int{}
	for _, s := range sugs {
		seen[s.Where]++
		if seen[s.Where] > 2 {
			t.Fatalf("suggestion spam for %q", s.Where)
		}
	}
}

func TestRenderLimitsAndEmpty(t *testing.T) {
	if !strings.Contains(Render(nil, 5), "no optimization opportunities") {
		t.Fatal("empty render")
	}
	sugs := analyzeDarknet(t)
	if len(sugs) < 3 {
		t.Skip("too few suggestions to test truncation")
	}
	out := Render(sugs, 2)
	if strings.Count(out, "\n 1.")+strings.Count(out, "\n 2.")+strings.Count(out, " 1. ") == 0 {
		t.Fatalf("render = %q", out)
	}
	if strings.Contains(out, " 3. ") {
		t.Fatal("truncation ignored")
	}
}
