package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadRuns reads a --json file and returns each untraced end-to-end
// metric's per-run values, by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges new runs against base runs of one metric. A change is
// "unresolved" when either side's run-to-run spread exceeds the bound,
// unless every new run reads better than every base run; otherwise it
// "regressed" when the new median is worse by more than the bound.
func verdict(d metricDef, base, cur []float64) string {
	if len(base) > 0 && len(cur) > 0 && everyBetter(d, base, cur) {
		return "better"
	}
	if len(base) < 2 || len(cur) < 2 || spread(base) > d.bound || spread(cur) > d.bound {
		return "unresolved"
	}
	if worsening(d, median(base), median(cur)) > d.bound {
		return "regressed"
	}
	return "ok"
}

// worsening is how much worse cur is than base, as a share of base
// (negative when better).
func worsening(d metricDef, base, cur float64) float64 {
	if d.better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

func everyBetter(d metricDef, base, cur []float64) bool {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range base {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range cur {
		if d.better == "higher" && v <= hi || d.better == "lower" && v >= lo {
			return false
		}
	}
	return true
}

// compare prints one row per workload and end-to-end metric: both
// medians, the change, the bound, both spreads and the verdict. It
// reports whether any metric regressed.
func compare(basePath, curPath string, w io.Writer) (bool, error) {
	base, err := loadRuns(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadRuns(curPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-8s %-11s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "base", "new", "change", "bound", "spread0", "spread1", "verdict")
	for _, wl := range allWorkloads {
		if base[wl.name] == nil && cur[wl.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			b, c := base[wl.name][d.name], cur[wl.name][d.name]
			v := verdict(d, b, c)
			regressed = regressed || v == "regressed"
			mb, mc := median(b), median(c)
			fmt.Fprintf(w, "%-8s %-11s %12.5g %12.5g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s (n=%d/%d)\n",
				wl.name, d.name, mb, mc, 100*(mc-mb)/mb, 100*d.bound,
				100*spread(b), 100*spread(c), v, len(b), len(c))
		}
	}
	return regressed, nil
}
