package experiments

import (
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/workloads"
)

// TestSamplingPreservesPatterns validates the premise of §6.2: "GPU
// kernels show similar behaviors across loop iterations and across GPU
// thread blocks, such that their value patterns can be identified with
// sampled kernels and blocks". Block-sampled fine analysis must still
// detect every fine-grained pattern the unsampled run finds on the
// workloads whose kernels iterate homogeneously.
func TestSamplingPreservesPatterns(t *testing.T) {
	t.Parallel()
	finePatterns := func(name string, period int) map[string]bool {
		w, err := workloads.Lookup(name, 32)
		if err != nil {
			t.Fatal(err)
		}

		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := core.Attach(rt, core.Config{
			Fine:                true,
			BlockSamplingPeriod: period,
			Program:             name,
		})
		if err := w.Run(rt, workloads.Original); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, f := range p.Report().Fine {
			for _, pat := range f.Patterns {
				set[pat.Kind] = true
			}
		}
		return set
	}

	for _, app := range []string{"Rodinia/backprop", "Rodinia/hotspot", "Darknet", "Castro"} {
		full := finePatterns(app, 1)
		sampled := finePatterns(app, 4)
		for k := range full {
			if !sampled[k] {
				t.Errorf("%s: pattern %q lost under block sampling (full=%v sampled=%v)",
					app, k, full, sampled)
			}
		}
	}
}
