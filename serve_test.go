package valueexpert

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
)

// TestServiceFacade drives the serving surface exactly like an embedding
// application: attach a program as a session, wait for it, and check the
// session report matches the one-shot Profile call byte for byte.
func TestServiceFacade(t *testing.T) {
	run := func(rt *cuda.Runtime) error {
		// Synthetic frame: keeps call paths identical whether the program
		// runs on the test goroutine (one-shot) or a session's stream
		// handler, so the reports stay byte-comparable.
		rt.PushFrame(callpath.Frame{Func: "servedProgram", File: "serve_test.go", Line: 1})
		defer rt.PopFrame()
		buf, err := rt.MallocF32(1024, "data")
		if err != nil {
			return err
		}
		if err := rt.Memset(buf, 0, 4*1024); err != nil {
			return err
		}
		k := &gpu.GoKernel{Name: "serve_kernel", Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= 1024 {
				return
			}
			th.StoreF32(0, uint64(buf)+uint64(4*i), 0)
		}}
		return rt.Launch(k, gpu.Dim1(4), gpu.Dim1(256))
	}
	cfg := Config{Coarse: true, Fine: true, Program: "served"}

	// The one-shot baseline.
	p, err := Profile(NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), run), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	baseline := p.Report()

	svc := NewService()
	sess, err := svc.Attach(ServiceSessionConfig{
		Program: "served", Device: gpu.RTX2080Ti, Engine: cfg, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	if sess.State() != SessionDone {
		t.Fatalf("state = %s, want done", sess.State())
	}
	rep, ok := sess.Report()
	if !ok {
		t.Fatal("no report after Drain")
	}
	norm := func(r *Report) []byte {
		cp := *r
		cp.Stats.AnalysisTime = 0
		var buf bytes.Buffer
		if err := cp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(norm(rep), norm(baseline)) {
		t.Fatal("session report differs from one-shot baseline")
	}

	// A rejected configuration returns the typed error and a draining
	// service refuses new sessions.
	bad := cfg
	bad.BufferRecords = -1
	var ce *ConfigError
	if _, err := svc.Attach(ServiceSessionConfig{
		Program: "bad", Device: gpu.RTX2080Ti, Engine: bad, Run: run,
	}); !errors.As(err, &ce) {
		t.Fatalf("Attach with invalid config = %v, want ConfigError", err)
	}
	svc.Shutdown()
	if _, err := svc.Attach(ServiceSessionConfig{
		Program: "late", Device: gpu.RTX2080Ti, Engine: cfg, Run: run,
	}); err != ErrServiceClosed {
		t.Fatalf("Attach after Shutdown = %v, want ErrServiceClosed", err)
	}
}

// TestServeHandlerFacade drives the HTTP surface through the facade the
// way the README quickstart curls it.
func TestServeHandlerFacade(t *testing.T) {
	svc := NewService()
	defer svc.Shutdown()
	h := svc.Handler(ServeConfig{
		Defaults: EngineOptions{Coarse: true, Fine: true, Sample: 1, Scale: 8},
		Device:   "RTX 2080 Ti",
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workload": "Rodinia/bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("POST /v1/sessions = %d %+v", resp.StatusCode, info)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions/" + info.ID + "/report?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Program != "Rodinia/bfs" || len(rep.Objects) == 0 {
		t.Fatalf("report = %d program=%q objects=%d", resp.StatusCode, rep.Program, len(rep.Objects))
	}

	resp, err = http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	var agg ServiceAggregate
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(agg.Sessions) != 1 || agg.Objects == 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

// TestFleetFacade drives the fleet re-exports the way an embedding
// application would: a limit-bounded service with a persistent store,
// a quota rejection typed as *ServiceQuotaError, remote attach through
// DialServiceAttach, and restart recovery through OpenServiceStore.
func TestFleetFacade(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenServiceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(
		WithServiceLimits(ServiceLimits{MaxRunning: 1, MaxQueued: 0}),
		WithServiceStore(st),
	)
	cfg := Config{Coarse: true, Fine: true, Program: "fleet"}

	gate := make(chan struct{})
	blocker, err := svc.Attach(ServiceSessionConfig{
		Program: "fleet", Device: gpu.RTX2080Ti, Engine: cfg,
		Run: func(rt *cuda.Runtime) error { <-gate; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// No queue configured: the second Attach is rejected outright.
	var qe *ServiceQuotaError
	if _, err := svc.Attach(ServiceSessionConfig{
		Program: "over", Device: gpu.RTX2080Ti, Engine: cfg,
		Run: func(rt *cuda.Runtime) error { return nil },
	}); !errors.As(err, &qe) {
		t.Fatalf("over-quota Attach = %v, want *ServiceQuotaError", err)
	}
	close(gate)
	if err := blocker.Drain(); err != nil {
		t.Fatal(err)
	}
	id := blocker.ID()
	svc.Shutdown()

	// A fresh service over the same store directory serves the finished
	// session again, marked Restored.
	st2, err := OpenServiceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithServiceStore(st2))
	defer svc2.Shutdown()
	restored := svc2.Session(id)
	if restored == nil {
		t.Fatalf("session %s not restored from %s", id, dir)
	}
	if info := restored.Info(); !info.Restored || info.State != SessionDone {
		t.Fatalf("restored session info = %+v", info)
	}

	// Remote attach through the facade: stream a program into svc2 and
	// read the finalized report back over the socket.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc2.ServeAttach(ln, ServeConfig{
		Defaults: EngineOptions{Coarse: true, Fine: true, Sample: 1, Scale: 1},
		Device:   "RTX 2080 Ti",
	})
	defer as.Close()
	rs, err := DialServiceAttach("tcp", ln.Addr().String(), RemoteAttachRequest{Program: "remote-fleet"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Run(gpu.RTX2080Ti, func(rt *cuda.Runtime) error {
		buf, err := rt.MallocF32(64, "remote")
		if err != nil {
			return err
		}
		return rt.Memset(buf, 0, 4*64)
	}); err != nil {
		t.Fatal(err)
	}
	final, raw, err := rs.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SessionDone || len(raw) == 0 {
		t.Fatalf("remote session finished %s with %d report bytes", final.State, len(raw))
	}
	if _, err := ReadReport(bytes.NewReader(raw)); err != nil {
		t.Fatalf("remote report does not parse: %v", err)
	}
}
