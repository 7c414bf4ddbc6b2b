package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"valueexpert"
	"valueexpert/internal/cliconfig"
)

// opts builds test options: engine settings in the embedded shared
// Options, artifacts in vxprof's own fields.
func opts(device string, eng cliconfig.Options) *options {
	if eng.Sample == 0 {
		eng.Sample = 1
	}
	if eng.Scale == 0 {
		eng.Scale = 8
	}
	return &options{Options: eng, device: device}
}

// TestMain lets the test binary impersonate the vxprof executable: when
// re-executed with VXPROF_RUN_MAIN=1 it runs main() on VXPROF_ARGS, so
// tests can assert real exit codes and stderr output.
func TestMain(m *testing.M) {
	if os.Getenv("VXPROF_RUN_MAIN") == "1" {
		os.Args = append([]string{"vxprof"}, strings.Fields(os.Getenv("VXPROF_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVxprof re-executes the test binary as vxprof with args and returns
// its exit code and stderr.
func runVxprof(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"VXPROF_RUN_MAIN=1", "VXPROF_ARGS="+strings.Join(args, " "))
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		return 0, errBuf.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running %v: %v", args, err)
	}
	return ee.ExitCode(), errBuf.String()
}

func TestRunProducesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "p.json")
	dotOut := filepath.Join(dir, "g.dot")
	htmlOut := filepath.Join(dir, "r.html")

	o := opts("RTX 2080 Ti", cliconfig.Options{
		Coarse: true, Fine: true, ReuseDistance: true,
		Kernels: "fill_kernel,gemm_kernel",
	})
	o.jsonOut, o.dotOut, o.htmlOut = jsonOut, dotOut, htmlOut
	if err := run("Darknet", o, 64, false); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(jsonOut)
	if err != nil || !strings.Contains(string(js), "\"tool\": \"ValueExpert\"") {
		t.Fatalf("json artifact: %v", err)
	}
	dot, err := os.ReadFile(dotOut)
	if err != nil || !strings.Contains(string(dot), "digraph") {
		t.Fatalf("dot artifact: %v", err)
	}
	page, err := os.ReadFile(htmlOut)
	if err != nil || !strings.Contains(string(page), "<svg") {
		t.Fatalf("html artifact: %v", err)
	}
}

func TestRunOptimizedVariant(t *testing.T) {
	o := opts("A100", cliconfig.Options{Coarse: true})
	if err := run("PyTorch-Deepwave", o, 64, true); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "run.trace")
	ro := opts("RTX 2080 Ti", cliconfig.Options{Coarse: true, Scale: 64})
	if err := recordRun("PyTorch-Bert", ro, traceOut, false); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(traceOut); err != nil || st.Size() == 0 {
		t.Fatalf("trace artifact: %v", err)
	}
	jsonOut := filepath.Join(dir, "replayed.json")
	o := opts("RTX 2080 Ti", cliconfig.Options{Coarse: true, Fine: true})
	o.jsonOut = jsonOut
	if err := replayRun(traceOut, o); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(jsonOut)
	if err != nil || !strings.Contains(string(js), "redundant") {
		t.Fatalf("replay analysis missing findings: %v", err)
	}
	missing := opts("A100", cliconfig.Options{Coarse: true})
	if err := replayRun(filepath.Join(dir, "missing.trace"), missing); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestRunErrors(t *testing.T) {
	o := opts("A100", cliconfig.Options{Coarse: true, Fine: true})
	if err := run("NoSuchApp", o, 64, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := opts("H100", cliconfig.Options{Coarse: true, Fine: true})
	if err := run("Darknet", bad, 64, false); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// TestConfigErrorsExitNonZero covers every ConfigError field the
// validator can return: fields with a CLI spelling must make vxprof exit
// with status 2 and name the flag on stderr; library-only fields have no
// flag mapping and are asserted through Config.Validate directly.
func TestConfigErrorsExitNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	cli := []struct {
		field string
		args  []string
		flag  string
	}{
		// Sampling-period errors are caught by the CLI-local -sample >= 1
		// check, which fronts the same engine fields.
		{"KernelSamplingPeriod", []string{"-sample=-1"}, "-sample"},
		{"BlockSamplingPeriod", []string{"-sample=0"}, "-sample"},
		{"ReuseDistance", []string{"-reuse", "-coarse=false", "-fine=false"}, "-reuse"},
		{"Patterns", []string{"-patterns=bogus"}, "-patterns"},
	}
	for _, tc := range cli {
		code, stderr := runVxprof(t, tc.args...)
		if code != 2 {
			t.Errorf("field %s: exit code %d, want 2 (stderr: %s)", tc.field, code, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("field %s: stderr %q does not name %s", tc.field, stderr, tc.flag)
		}
	}

	// Library-only fields: reachable through the API but not vxprof flags.
	libOnly := []struct {
		field string
		cfg   valueexpert.Config
	}{
		{"BufferRecords", valueexpert.Config{BufferRecords: -64}},
		{"CopyStrategy", valueexpert.Config{CopyStrategy: valueexpert.AdaptiveCopy + 1}},
	}
	for _, tc := range libOnly {
		if _, ok := cliconfig.FlagForField[tc.field]; ok {
			t.Errorf("field %s: unexpectedly mapped to a flag; move it to the CLI table", tc.field)
		}
		var ce *valueexpert.ConfigError
		if err := tc.cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("field %s: Validate() = %v", tc.field, err)
		}
	}
}

func TestFaultsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	code, stderr := runVxprof(t, "-faults=bogus@x")
	if code != 2 || !strings.Contains(stderr, "-faults") {
		t.Fatalf("bad spec: exit %d, stderr %q", code, stderr)
	}
}

// TestRunWithFaults: an injected allocation fault surfaces as a run
// error, yet the partial profile is still emitted — with its Degraded
// section recording the injection.
func TestRunWithFaults(t *testing.T) {
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "p.json")
	o := opts("RTX 2080 Ti", cliconfig.Options{Coarse: true, Fine: true, Faults: "malloc@1"})
	o.jsonOut = jsonOut
	if err := run("Darknet", o, 64, false); err == nil {
		t.Fatal("injected malloc fault did not surface")
	}
	js, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatalf("partial profile not written: %v", err)
	}
	if !strings.Contains(string(js), "\"degraded\"") {
		t.Fatal("partial profile lacks the degraded section")
	}
	if !strings.Contains(string(js), "malloc@1") {
		t.Fatal("degraded section does not record the injection")
	}
}

func TestTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "m.json")
	selftraceOut := filepath.Join(dir, "t.json")
	o := opts("RTX 2080 Ti", cliconfig.Options{Coarse: true, Fine: true})
	o.metricsOut, o.selftraceOut, o.overhead = metricsOut, selftraceOut, true
	if err := run("Darknet", o, 64, false); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Program  string            `json:"program"`
		Counters map[string]uint64 `json:"counters"`
	}
	raw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if m.Counters["sanitizer.flushes"] == 0 {
		t.Fatal("metrics export empty")
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	raw, err = os.ReadFile(selftraceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("self-trace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("self-trace empty")
	}
	lanes := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		lanes[ev.TID] = true
	}
	// The kernel lane (0) and the analysis lane (1), nothing else.
	if len(lanes) != 2 || !lanes[0] || !lanes[1] {
		t.Fatalf("self-trace lanes = %v, want kernel (0) and analysis (1)", lanes)
	}
}

func TestRunWithPatternSubset(t *testing.T) {
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "p.json")
	o := opts("RTX 2080 Ti", cliconfig.Options{
		Coarse: true, Fine: true, Patterns: "redundant values,single zero",
	})
	o.jsonOut = jsonOut
	if err := run("Darknet", o, 64, false); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "\"enabled_patterns\"") {
		t.Fatalf("non-default selection not recorded in report")
	}
	// Disabled detectors must leave no rows: Darknet's default report has
	// "single value" and "heavy type" fine findings; the subset run must
	// not.
	for _, gone := range []string{"single value", "heavy type", "structured values"} {
		if strings.Contains(string(js), `"kind": "`+gone+`"`) {
			t.Fatalf("disabled pattern %q still reported", gone)
		}
	}
	if !strings.Contains(string(js), `"kind": "single zero"`) {
		t.Fatalf("enabled pattern missing from report")
	}
}

// TestRemoteRun drives -remote against an in-process daemon: the
// workload executes here, its event stream crosses the attach socket,
// and the daemon's finalized session state comes back Done. The
// byte-identity of the resulting report is pinned by the proptest
// harness (property g); this covers the CLI plumbing.
func TestRemoteRun(t *testing.T) {
	eng := cliconfig.Options{Coarse: true, Fine: true, Sample: 1, Scale: 64}
	svc := valueexpert.NewService()
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, valueexpert.ServeConfig{Defaults: eng, Device: "RTX 2080 Ti"})
	defer as.Close()

	o := opts("RTX 2080 Ti", eng)
	if err := remoteRun(ln.Addr().String(), "Darknet", o, false); err != nil {
		t.Fatal(err)
	}
	sessions := svc.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("daemon hosts %d sessions, want 1", len(sessions))
	}
	if st := sessions[0].State(); st != valueexpert.SessionDone {
		t.Fatalf("remote session state = %s, want done", st)
	}

	if err := remoteRun(ln.Addr().String(), "NoSuchApp", o, false); err == nil {
		t.Fatal("unknown workload accepted by remote attach")
	}
	// -faults cannot reach a streamed run: it is rejected before dialing,
	// so the daemon never sees a session that would report clean.
	faulted := opts("RTX 2080 Ti", eng)
	faulted.Faults = "malloc@1"
	if err := remoteRun(ln.Addr().String(), "Darknet", faulted, false); err == nil || len(svc.Sessions()) != 1 {
		t.Fatalf("remote run with -faults = %v with %d sessions, want an error before dialing", err, len(svc.Sessions()))
	}
	addr := ln.Addr().String()
	as.Close()
	if err := remoteRun(addr, "Darknet", o, false); err == nil {
		t.Fatal("closed attach socket accepted")
	}
}
