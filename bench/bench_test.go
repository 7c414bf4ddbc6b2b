package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"valueexpert/internal/telemetry"
	"valueexpert/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.sha256 from one-shot runs")

// tiny shrinks every workload to a problem size whose runs take a few
// milliseconds, and the calibration loop with it; a run ends as soon as
// it has its minimum ops.
func tiny(t *testing.T) params {
	return params{
		seconds: 0, minOps: 100, setups: 1,
		corpusDir: "../testdata/corpus", workDir: t.TempDir(), scale: 256,
		calibrate: calUpdates / 100,
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark contract and
// to the workloads and metrics this command prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if got := strings.Join(spec.Paths, ","); got != "bench" {
		t.Errorf("paths = %q, want exactly [bench]", spec.Paths)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	for _, arg := range spec.Command[1:] {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command argument %q leaves bench/", arg)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// Each run measures run_seconds plus its set-up and any stretch to
	// reach 100 ops (about 6 s); the contract's 4 + 22·W runs must fit in
	// 3420 s with two builds.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+6) > 3420-120 {
		t.Errorf("%d runs of %d s do not fit the time cap", runs, spec.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	var names []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		names = append(names, w.Name)
		if wl, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		} else if wl.why != w.Why {
			t.Errorf("workload %s: why differs from the command's", w.Name)
		}
	}
	if len(names) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists %v, the command runs %d workloads", names, len(allWorkloads))
	}

	check := func(kind string, got []def, want []metricDef, max int, bounded bool) {
		if len(got) < 1 || len(got) > max {
			t.Errorf("%s: %d metrics, want 1-%d", kind, len(got), max)
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if !unit.MatchString(g.Unit) || g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: bad unit %q or better %q", kind, g.Name, g.Unit, g.Better)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the command %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && g.Bound == nil:
				t.Errorf("%s %s: no bound", kind, g.Name)
			case bounded && (*g.Bound <= 0 || *g.Bound > 0.25 || *g.Bound != w.bound):
				t.Errorf("%s %s: bound %v, want %v in (0, 0.25]", kind, g.Name, *g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer, 128, false)
	var setup *def
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
}

// printed runs one workload and returns its printed metric lines by
// name, checking the outcome is correct and every metric printed.
func printed(t *testing.T, p params, w *workload, seed int64, traced bool, sink *telemetry.Buffer) map[string][]string {
	t.Helper()
	out, err := run(p, w, seed, traced, sink)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, traced, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s (trace %v): correct=%v failed=%d of %d", w.name, traced, out.Correct, out.Failed, out.Attempted)
	}
	var buf bytes.Buffer
	printOutcome(&buf, w.name, traced, out)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("JSON keys %s", got)
	}
	byName := map[string][]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 5 || f[0] != w.name || !strings.HasPrefix(f[4], "n=") {
			t.Errorf("malformed line %q", l)
			continue
		}
		byName[f[1]] = f
	}
	if e := byName["error_rate"]; e == nil || e[2] != "0" {
		t.Errorf("%s: error_rate line %v", w.name, e)
	}
	for _, d := range defsFor(traced) {
		f := byName[d.name]
		if f == nil || f[3] != d.unit {
			t.Errorf("%s: metric %s printed as %v, want unit %s", w.name, d.name, f, d.unit)
		}
	}
	return byName
}

// TestSmoke runs every workload at a tiny size: the live and daemon
// workloads untraced (the end-to-end metrics), and all four traced (the
// per-layer metrics). The untraced darknet and replay runs share their
// steps with the traced ones and cost seconds at any size that works.
// A second traced LAMMPS run, with another seed, must print the same
// work counts: they are exact.
func TestSmoke(t *testing.T) {
	p := tiny(t)
	buf := telemetry.NewBuffer()
	traced := map[string]map[string][]string{}
	for _, w := range allWorkloads {
		if w.name == "lammps" || w.name == "daemon" {
			printed(t, p, w, 1, false, nil)
		}
		traced[w.name] = printed(t, p, w, 1, true, buf)
	}
	checkSpans(t, buf)

	w, _ := workloadByName("lammps")
	again := printed(t, p, w, 2, true, nil)
	for _, d := range perLayer {
		if d.unit != "count" && d.name != "snapshot.copy_bytes" && d.name != "trace.bytes_per_access" {
			continue
		}
		if got, want := again[d.name][2], traced["lammps"][d.name][2]; got != want {
			t.Errorf("lammps %s: seed 2 printed %s, seed 1 %s", d.name, got, want)
		}
	}
}

// checkSpans writes the traced runs' spans the way --trace-dir does and
// checks the file is a Chrome trace whose every span names its workload,
// iteration, op and parent, and whose parents are spans of the file.
func checkSpans(t *testing.T, buf *telemetry.Buffer) {
	t.Helper()
	dir := t.TempDir()
	if err := writeSpans(dir, buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("spans.json: %v", err)
	}
	ids := map[[2]any]bool{}
	workloadsSeen := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		ids[[2]any{ev.Args["workload"], ev.Args["id"]}] = true
		workloadsSeen[ev.Args["workload"]] = true
	}
	if len(workloadsSeen) != len(allWorkloads) {
		t.Errorf("spans of %d workloads, want %d", len(workloadsSeen), len(allWorkloads))
	}
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"workload", "iteration", "op", "parent"} {
			if _, ok := ev.Args[k]; !ok {
				t.Fatalf("span %s has no %s: %v", ev.Name, k, ev.Args)
			}
		}
		if ev.Ph != "X" || ev.Args["op"] != ev.Name {
			t.Fatalf("span %s: phase %q, op %v", ev.Name, ev.Ph, ev.Args["op"])
		}
		if p := ev.Args["parent"]; p != 0.0 && !ids[[2]any{ev.Args["workload"], p}] {
			t.Fatalf("span %s: parent %v is not a span of %v", ev.Name, p, ev.Args["workload"])
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1: order must not matter
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {0.99 - 1e-9, 99}} {
		got, err := percentile(xs, c.q)
		if c.q > 0.9 {
			if err == nil {
				t.Errorf("p%g of 100 has 1 sample beyond it; want refusal", 100*c.q)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want refusal")
	}
	if got := p50([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
	if got := p50([]float64{7}); got != 7 {
		t.Errorf("p50 of one sample = %v", got)
	}
}

// TestOverheadIsRatioOfFastTails checks overhead_x: the p10 of the op's
// raw times over the p10 of the native ones, whatever the calibration.
func TestOverheadIsRatioOfFastTails(t *testing.T) {
	var op, native []sample
	for i := 20; i >= 1; i-- { // 20 samples each, in falling order
		op = append(op, sample{ms: float64(10 * i), cal: float64(i)})
		native = append(native, sample{ms: float64(i), cal: 1})
	}
	// Nearest rank: p10 of 20 samples is the 2nd smallest.
	if got := overhead(op, native); got != 20.0/2 {
		t.Errorf("overhead = %v, want p10(10..200)/p10(1..20) = 20/2", got)
	}
	// Other times read at the reference speed, where the loop takes calRef.
	if got := typical([]sample{{10, 5}, {40, 20}, {60, 10}}); got != 20 {
		t.Errorf("typical = %v, want p50(20, 20, 60) = 20", got)
	}
}

// TestBracketingCalibration checks that a sample is normalized by the
// mean of the calibrations before and after its span.
func TestBracketingCalibration(t *testing.T) {
	s := newSpans("w", nil)
	s.setCal(10)
	s.end(s.begin(nil, 0, 0, "op", "a"))
	s.end(s.beginReps(nil, 0, 0, "native", "a", 4))
	s.setCal(30)
	s.end(s.begin(nil, 0, 1, "op", "a"))
	s.setCal(50)
	s.setCal(70)
	ops, natives := s.get("op", "a"), s.get("native", "a")
	if len(ops) != 2 || ops[0].cal != 20 || ops[1].cal != 40 || natives[0].cal != 20 {
		t.Errorf("calibrations %v, %v; want op 20 then 40, native 20", ops, natives)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5/5.5 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range opMS {
			r := record{Workload: "darknet", Seed: int64(i), outcome: outcome{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"op_ms_p50": {Value: v, Unit: "ms"}},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := write("steady.jsonl", []float64{100, 101, 99, 100, 102, 98})
	slower := write("slower.jsonl", []float64{120, 121, 119, 120, 122, 118})
	noisy := write("noisy.jsonl", []float64{60, 140, 100, 80, 130, 90})
	within := write("within.jsonl", []float64{104, 105, 103, 104, 106, 97})

	row := func(base, cur string) string {
		var buf bytes.Buffer
		if _, err := compare(base, cur, &buf); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "darknet  op_ms_p50 ") {
				return l
			}
		}
		t.Fatalf("no op_ms_p50 row in\n%s", buf.String())
		return ""
	}
	for _, c := range []struct{ base, cur, want string }{
		{steady, slower, " regressed "},
		{steady, within, " ok "},
		{steady, noisy, " unresolved "},
		{slower, steady, " better "},
	} {
		if got := row(c.base, c.cur); !strings.Contains(got, c.want) {
			t.Errorf("%s → %s: %q, want verdict%s", filepath.Base(c.base), filepath.Base(c.cur), got, c.want)
		}
	}
}

// TestPinnedDigests recomputes every pinned report digest from a
// one-shot run at the size the command runs it; -update rewrites the
// file instead of comparing.
func TestPinnedDigests(t *testing.T) {
	pinned, err := parseDigests(pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	prevScale := workloads.Scale
	defer func() { workloads.Scale = prevScale }()
	var lines []string
	for _, w := range allWorkloads {
		workloads.Scale = w.scale
		for _, name := range w.apps {
			a, err := newApp(name, w.scale)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := oneShot(a)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := reportDigest(raw)
			if err != nil {
				t.Fatal(err)
			}
			key := digestKey(name, w.scale)
			lines = append(lines, sum+"  "+key)
			if !*update && pinned[key] != sum {
				t.Errorf("%s: report digest %s, pinned %q; regenerate on purpose with -update", key, sum, pinned[key])
			}
		}
	}
	if *update {
		if err := os.WriteFile("testdata/reports.sha256", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCalibrationAllocatesNothing guards the calibration loop's promise
// not to disturb the collector's pacing between timed calls.
func TestCalibrationAllocatesNothing(t *testing.T) {
	m := make(map[uint64]uint64, calKeys)
	if n := testing.AllocsPerRun(3, func() { calibrate(m, calUpdates) }); n != 0 {
		t.Errorf("calibrate allocated %v times per run", n)
	}
}
