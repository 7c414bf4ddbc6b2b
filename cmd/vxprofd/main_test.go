package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/daemon"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// TestMain supports re-execution: with VXPROFD_RUN_MAIN=1 the binary
// runs main() on VXPROFD_ARGS, so the SIGTERM test drains a real server.
func TestMain(m *testing.M) {
	if os.Getenv("VXPROFD_RUN_MAIN") == "1" {
		os.Args = append([]string{"vxprofd"}, strings.Fields(os.Getenv("VXPROFD_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeDefaults is the engine surface the daemon smoke runs with.
func smokeDefaults() cliconfig.Options {
	return cliconfig.Options{Coarse: true, Fine: true, Sample: 1, Scale: 64}
}

// oneShotReport profiles a workload through the classic one-shot
// lifecycle with the exact configuration the daemon derives from the
// same options.
func oneShotReport(t *testing.T, name string) *profile.Report {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := smokeDefaults()
	cfg, err := opts.EngineConfig(w.Name())
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	src := cuda.NewLiveSource(rt, func(rt *cuda.Runtime) error {
		return w.Run(rt, workloads.Original)
	})
	p, err := core.Profile(src, cfg)
	if err != nil {
		t.Fatalf("one-shot %s: %v", name, err)
	}
	p.Detach()
	return p.Report()
}

// normalize re-serializes a report with AnalysisTime zeroed — the
// repo-wide convention for byte comparison (it is the one wall-clock
// field; everything else in a report is deterministic).
func normalize(t *testing.T, rep *profile.Report) []byte {
	t.Helper()
	cp := *rep
	cp.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := cp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonSmoke is the `make daemon-smoke` step: start the service,
// attach two workloads as sessions over HTTP, curl their reports and
// /metrics, and diff each per-session report against the equivalent
// one-shot run.
func TestDaemonSmoke(t *testing.T) {
	workloads.Scale = 64
	defer func() { workloads.Scale = 1 }()

	svc := daemon.NewService()
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(),
		Device:   "RTX 2080 Ti",
	}))
	defer ts.Close()

	names := []string{"Darknet", "Rodinia/bfs"}
	var ids []string
	for _, name := range names {
		body := fmt.Sprintf(`{"workload": %q}`, name)
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info daemon.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/sessions %s = %d (%+v)", name, resp.StatusCode, info)
		}
		ids = append(ids, info.ID)
	}

	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/report?wait=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s = %d: %v", id, resp.StatusCode, err)
		}
		served, err := profile.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("served report %s does not round-trip: %v", id, err)
		}
		got, want := normalize(t, served), normalize(t, oneShotReport(t, names[i]))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: daemon report (%d bytes) differs from one-shot vxprof-equivalent run (%d bytes)",
				names[i], len(got), len(want))
		}
	}

	// /v1/metrics exposes the service counters and each session's
	// engine telemetry.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]telemetry.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics["service"].Counters["daemon.sessions_done"] != 2 {
		t.Fatalf("service metrics: %+v", metrics["service"].Counters)
	}
	for _, id := range ids {
		if metrics[id].Counters["sanitizer.flushes"] == 0 {
			t.Fatalf("session %s has no engine metrics: %+v", id, metrics[id].Counters)
		}
	}

	// The aggregate folds both sessions.
	resp, err = http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	var agg daemon.Aggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(agg.Sessions) != 2 || agg.Stats.KernelLaunches == 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

// apiError is the typed error envelope every /v1 endpoint speaks.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Field   string `json:"field"`
	} `json:"error"`
}

// TestBadRequests covers the HTTP error surface: each failure mode maps
// to its stable code in the shared envelope, with the canonical option
// name in "field" when one option is to blame.
func TestBadRequests(t *testing.T) {
	svc := daemon.NewService()
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	defer ts.Close()

	post := func(body string) (int, apiError) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	for _, tc := range []struct {
		name, body, wantErr, wantCode, wantField string
	}{
		{"missing workload", `{}`, "workload is required", "invalid_request", "workload"},
		{"unknown workload", `{"workload": "nope"}`, "unknown workload", "unknown_workload", "workload"},
		{"unknown device", `{"workload": "Darknet", "device": "TPU"}`, "unknown device", "unknown_device", "device"},
		{"per-session scale", `{"workload": "Darknet", "options": {"scale": 2}}`, "-scale is fixed at daemon startup", "invalid_option", "scale"},
		{"invalid sample", `{"workload": "Darknet", "options": {"sample": 0}}`, "-sample must be >= 1", "invalid_option", "sample"},
		{"unknown pattern", `{"workload": "Darknet", "options": {"patterns": "bogus"}}`, "-patterns", "invalid_option", "patterns"},
		{"bad fault spec", `{"workload": "Darknet", "options": {"faults": "zzz@1"}}`, "-faults", "invalid_option", "faults"},
		// Keys match case-insensitively (encoding/json), so a Go field
		// spelling still reaches its option.
		{"capitalized option key", `{"workload": "Darknet", "options": {"Sample": 0}}`, "-sample must be >= 1", "invalid_option", "sample"},
		// Keys outside the canonical schema are rejected, not dropped.
		{"unknown option key", `{"workload": "Darknet", "options": {"max-running": 2}}`, `unknown option "max-running"`, "invalid_option", "max-running"},
		{"retired workers key", `{"workload": "Darknet", "options": {"workers": 2}}`, `unknown option "workers"`, "invalid_option", "workers"},
		{"retired depth key", `{"workload": "Darknet", "options": {"depth": 2}}`, `unknown option "depth"`, "invalid_option", "depth"},
		{"malformed options", `{"workload": "Darknet", "options": {"sample": "x"}}`, "invalid options", "invalid_request", "options"},
	} {
		code, e := post(tc.body)
		if code != http.StatusBadRequest || !strings.Contains(e.Error.Message, tc.wantErr) {
			t.Errorf("%s: got %d %q, want 400 containing %q", tc.name, code, e.Error.Message, tc.wantErr)
		}
		if e.Error.Code != tc.wantCode || e.Error.Field != tc.wantField {
			t.Errorf("%s: got code=%q field=%q, want %q/%q",
				tc.name, e.Error.Code, e.Error.Field, tc.wantCode, tc.wantField)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/s-99/report")
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || e.Error.Code != "unknown_session" {
		t.Fatalf("unknown session = %d code %q, want 404 unknown_session", resp.StatusCode, e.Error.Code)
	}
}

// TestBarePathsGone pins the unversioned surface: bare API paths answer
// 404, while /healthz stays live for load-balancer probes.
func TestBarePathsGone(t *testing.T) {
	svc := daemon.NewService()
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	defer ts.Close()

	for _, path := range []string{
		"/sessions", "/sessions/s-1/report", "/sessions/s-1/trace",
		"/aggregate", "/metrics", "/selftrace",
	} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{"workload": "Darknet"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", method, path, resp.StatusCode)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unversioned /healthz = %d, want 200", resp.StatusCode)
	}
}

// TestDaemonQuota smokes admission control over HTTP: with one running
// slot held by a stalled session, the first POST queues (202 with a
// queue position) and the second is rejected 429 with the typed
// quota_exceeded envelope; releasing the stall drains the queue.
func TestDaemonQuota(t *testing.T) {
	workloads.Scale = 64
	defer func() { workloads.Scale = 1 }()

	svc := daemon.NewService(daemon.WithLimits(daemon.Limits{MaxRunning: 1, MaxQueued: 1}))
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	defer ts.Close()

	// Occupy the single running slot with a session stalled on a gate.
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, err := svc.Attach(daemon.SessionConfig{
		Program: "blocker", Device: gpu.RTX2080Ti,
		Engine: core.Config{Fine: true},
		Run: func(rt *cuda.Runtime) error {
			close(started)
			<-gate
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Darknet"}`))
	if err != nil {
		t.Fatal(err)
	}
	var queued daemon.Info
	json.NewDecoder(resp.Body).Decode(&queued)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || queued.State != daemon.StateQueued || queued.Queue != 1 {
		t.Fatalf("queued admission = %d %+v, want 202 queued at position 1", resp.StatusCode, queued)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Rodinia/bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != "quota_exceeded" {
		t.Fatalf("over-quota admission = %d code %q, want 429 quota_exceeded", resp.StatusCode, e.Error.Code)
	}

	// Release the stall: the queued session is dispatched and completes.
	close(gate)
	blocker.Drain()
	resp, err = http.Get(ts.URL + "/v1/sessions/" + queued.ID + "/report?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued session report = %d after drain, want 200", resp.StatusCode)
	}
}

// TestDaemonRestartRecovery smokes the persistent store across a real
// service restart: a session's report served before shutdown is served
// byte-identically by a fresh service opened on the same store.
func TestDaemonRestartRecovery(t *testing.T) {
	workloads.Scale = 64
	defer func() { workloads.Scale = 1 }()
	dir := t.TempDir()

	get := func(ts *httptest.Server, path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	st, err := daemon.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := daemon.NewService(daemon.WithStore(st))
	ts1 := httptest.NewServer(svc1.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	resp, err := http.Post(ts1.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Darknet", "trace": true}`))
	if err != nil {
		t.Fatal(err)
	}
	var info daemon.Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	code, before := get(ts1, "/v1/sessions/"+info.ID+"/report?wait=1")
	if code != http.StatusOK {
		t.Fatalf("report before restart = %d", code)
	}
	_, traceBefore := get(ts1, "/v1/sessions/"+info.ID+"/trace")
	ts1.Close()
	svc1.Shutdown()

	// "Restart": a brand-new service on the same store directory.
	st2, err := daemon.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := daemon.NewService(daemon.WithStore(st2))
	defer svc2.Shutdown()
	ts2 := httptest.NewServer(svc2.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	defer ts2.Close()

	code, after := get(ts2, "/v1/sessions/"+info.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report after restart = %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed the report: %d bytes before, %d after", len(before), len(after))
	}
	code, traceAfter := get(ts2, "/v1/sessions/"+info.ID+"/trace")
	if code != http.StatusOK || !bytes.Equal(traceBefore, traceAfter) {
		t.Fatalf("restart changed the trace (status %d)", code)
	}

	// The restored session is listed, and a restart-time POST continues
	// the ID sequence past the stored sessions.
	code, listing := get(ts2, "/v1/sessions")
	if code != http.StatusOK || !strings.Contains(string(listing), `"restored": true`) {
		t.Fatalf("restored session missing from listing: %d %s", code, listing)
	}
	resp, err = http.Post(ts2.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Rodinia/bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	var next daemon.Info
	json.NewDecoder(resp.Body).Decode(&next)
	resp.Body.Close()
	if next.ID == info.ID {
		t.Fatalf("restarted service reused session ID %s", next.ID)
	}
}

// TestGracefulSIGTERM re-executes the real binary, attaches a session,
// then sends SIGTERM and checks the server drains and exits cleanly.
// The listen port is retried over a small range because main prints the
// requested address, not the kernel-bound one, so ":0" is unusable here.
func TestGracefulSIGTERM(t *testing.T) {
	var proc *exec.Cmd
	var base string
	var errBuf bytes.Buffer
	for port := 7433; port < 7443; port++ {
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		proc = exec.Command(os.Args[0])
		proc.Env = append(os.Environ(),
			"VXPROFD_RUN_MAIN=1", "VXPROFD_ARGS=-addr "+addr+" -scale 64")
		errBuf.Reset()
		proc.Stderr = &errBuf
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		base = "http://" + addr
		if waitHealthy(base) {
			break
		}
		proc.Process.Kill()
		proc.Wait()
		proc = nil
	}
	if proc == nil {
		t.Skip("no free port for the SIGTERM smoke")
	}
	defer proc.Process.Kill()

	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Darknet"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info daemon.Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions = %d", resp.StatusCode)
	}

	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if err != nil && (!errors.As(err, &ee) || ee.ExitCode() != 0) {
			t.Fatalf("vxprofd exited with %v\nstderr: %s", err, errBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("vxprofd hung after SIGTERM\nstderr: %s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "draining sessions") {
		t.Fatalf("no drain log after SIGTERM\nstderr: %s", errBuf.String())
	}
}

// waitHealthy polls /healthz until the server answers or gives up.
func waitHealthy(base string) bool {
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestTraceEndpoint: a session created with "trace": true serves its
// recorded container on /v1/sessions/{id}/trace, and replaying those bytes
// through the one-shot engine reproduces the served report byte for
// byte. Sessions created without tracing 404 on the same endpoint.
func TestTraceEndpoint(t *testing.T) {
	workloads.Scale = 64
	defer func() { workloads.Scale = 1 }()

	svc := daemon.NewService()
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler(daemon.HandlerConfig{
		Defaults: smokeDefaults(), Device: "RTX 2080 Ti",
	}))
	defer ts.Close()

	create := func(body string) daemon.Info {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info daemon.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/sessions = %d (%+v)", resp.StatusCode, info)
		}
		return info
	}

	traced := create(`{"workload": "Darknet", "trace": true}`)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + traced.ID + "/trace?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("trace content type %q", ct)
	}
	if !bytes.HasPrefix(data, []byte("VXTR")) {
		t.Fatalf("served trace is not the binary container: % x", data[:8])
	}

	resp, err = http.Get(ts.URL + "/v1/sessions/" + traced.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report = %d: %v", resp.StatusCode, err)
	}
	served, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	opts := smokeDefaults()
	cfg, err := opts.EngineConfig("Darknet")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Profile(trace.NewSource(bytes.NewReader(data), gpu.RTX2080Ti), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	if !bytes.Equal(normalize(t, p.Report()), normalize(t, served)) {
		t.Fatal("replaying the served trace does not reproduce the served report")
	}

	// No trace requested: the endpoint 404s after the session finalizes.
	plain := create(`{"workload": "Rodinia/bfs"}`)
	resp, err = http.Get(ts.URL + "/v1/sessions/" + plain.ID + "/trace?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced session trace = %d, want 404", resp.StatusCode)
	}
}
