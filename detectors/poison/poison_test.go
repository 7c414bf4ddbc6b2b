package poison

import (
	"math"
	"strings"
	"testing"

	"valueexpert"
	"valueexpert/cuda"
	"valueexpert/gpu"
)

// runPoisoned executes a kernel storing a NaN, an Inf, and clean floats
// under the given pattern selection and returns the report.
func runPoisoned(t *testing.T, patterns []string) *valueexpert.Report {
	t.Helper()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := valueexpert.Attach(rt, valueexpert.Config{
		Coarse: true, Fine: true, Patterns: patterns, Program: "poison-test",
	})
	defer p.Detach()

	data, err := rt.MallocF32(64, "data")
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Launch(&gpu.GoKernel{
		Name: "poison_kernel",
		Func: func(th *gpu.Thread) {
			addr := uint64(data) + uint64(4*th.GlobalID())
			switch th.GlobalID() {
			case 0:
				th.StoreF32(0, addr, float32(math.NaN()))
			case 1:
				th.StoreF32(0, addr, float32(math.Inf(1)))
			default:
				th.StoreF32(0, addr, float32(th.GlobalID()))
			}
		},
	}, gpu.Dim1(1), gpu.Dim1(64))
	if err != nil {
		t.Fatal(err)
	}
	return p.Report()
}

func hasPoison(rep *valueexpert.Report) bool {
	for _, f := range rep.Fine {
		for _, p := range f.Patterns {
			if p.Kind == Name {
				return true
			}
		}
	}
	return false
}

func TestPoisonDetection(t *testing.T) {
	rep := runPoisoned(t, append(valueexpert.DefaultPatternNames(), Name))

	var detail string
	var frac float64
	for _, f := range rep.Fine {
		for _, p := range f.Patterns {
			if p.Kind == Name {
				detail, frac = p.Detail, p.Fraction
			}
		}
	}
	if detail == "" {
		t.Fatalf("no poison pattern in report: %+v", rep.Fine)
	}
	if !strings.Contains(detail, "1 NaN") || !strings.Contains(detail, "1 Inf") {
		t.Fatalf("poison detail = %q", detail)
	}
	wantFrac := 2.0 / 64.0
	if math.Abs(frac-wantFrac) > 1e-9 {
		t.Fatalf("poison fraction = %v, want %v", frac, wantFrac)
	}

	// The registry advice surfaces as a ranked suggestion.
	var sug string
	for _, s := range valueexpert.Suggest(rep, nil) {
		if strings.Contains(s.Title, "NaN/Inf") {
			sug = s.Title
		}
	}
	if sug == "" {
		t.Fatal("no advisor suggestion for the poison finding")
	}

	// The registered GUI section renders with the finding's row.
	page := valueexpert.RenderHTML(rep, nil, valueexpert.HTMLOptions{})
	if !strings.Contains(page, "Poison values (NaN/Inf)") ||
		!strings.Contains(page, "poison_kernel") {
		t.Fatal("poison section missing from the HTML report")
	}

	// The non-default selection is recorded.
	found := false
	for _, n := range rep.EnabledPatterns {
		found = found || n == Name
	}
	if !found {
		t.Fatalf("enabled_patterns = %v", rep.EnabledPatterns)
	}
}

func TestPoisonOffByDefault(t *testing.T) {
	rep := runPoisoned(t, nil)
	if hasPoison(rep) {
		t.Fatal("poison pattern reported without opting in")
	}
	if page := valueexpert.RenderHTML(rep, nil, valueexpert.HTMLOptions{}); strings.Contains(page, "Poison values") {
		t.Fatal("poison section rendered with no findings")
	}
	if rep.EnabledPatterns != nil {
		t.Fatalf("default run recorded enabled_patterns: %v", rep.EnabledPatterns)
	}
}

// TestPoisonInLoadRange: a NaN inside a compacted load range reaches the
// detector, which observes ranges element by element.
func TestPoisonInLoadRange(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := valueexpert.Attach(rt, valueexpert.Config{
		Coarse: true, Fine: true, Patterns: []string{Name},
	})
	host := make([]float32, 64)
	for i := range host {
		host[i] = float32(i)
	}
	host[37] = float32(math.NaN())
	data, err := rt.MallocF32(len(host), "data")
	if err == nil {
		err = rt.CopyF32ToDevice(data, host)
	}
	if err == nil {
		err = rt.Launch(&gpu.GoKernel{
			Name: "bulk_kernel",
			Func: func(th *gpu.Thread) { th.BulkLoad(0, uint64(data), len(host), 4, gpu.KindFloat) },
		}, gpu.Dim1(1), gpu.Dim1(1))
	}
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	p.Detach()
	var detail string
	for _, f := range rep.Fine {
		for _, pt := range f.Patterns {
			if pt.Kind == Name {
				detail = pt.Detail
			}
		}
	}
	if !strings.Contains(detail, "1 poisoned access(es): 1 NaN, 0 Inf") {
		t.Fatalf("poison detail = %q, want the range's one NaN", detail)
	}
}
