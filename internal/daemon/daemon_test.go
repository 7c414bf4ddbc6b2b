package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// engineCfg is the configuration every session test runs: both analyses
// and small buffers to force several flushes per kernel, so the race
// detector sees the analysis goroutine work inside launches.
func engineCfg() core.Config {
	return core.Config{
		Coarse: true, Fine: true,
		BufferRecords: 128,
	}
}

// randomRun wraps a seeded RandomProgram as a session run function; the
// program pushes a synthetic frame, so its report is byte-comparable
// across goroutines.
func randomRun(seed int64) func(rt *cuda.Runtime) error {
	return func(rt *cuda.Runtime) error {
		prog := &workloads.RandomProgram{Seed: seed, Tolerant: true}
		if errs := prog.Run(rt); len(errs) > 0 {
			return errs[0]
		}
		return nil
	}
}

// oneShot profiles a seed through the classic single-call lifecycle.
func oneShot(t *testing.T, seed int64) *profile.Report {
	t.Helper()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	cfg := engineCfg()
	cfg.Program = fmt.Sprintf("rnd-%d", seed)
	p, err := core.Profile(cuda.NewLiveSource(rt, randomRun(seed)), cfg)
	if err != nil {
		t.Fatalf("one-shot seed %d: %v", seed, err)
	}
	p.Detach()
	return p.Report()
}

// normBytes serializes a report with the wall-clock field zeroed, the
// repo-wide convention for byte comparison.
func normBytes(t *testing.T, rep *profile.Report) []byte {
	t.Helper()
	cp := *rep
	cp.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := cp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentSessionsMatchOneShot is the tentpole property: N
// sessions profiled concurrently through the daemon each produce a
// report byte-identical to the one-shot Profile call for the same
// workload and configuration, and the daemon's aggregate is
// byte-identical to sequentially folding those one-shot profiles.
func TestConcurrentSessionsMatchOneShot(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}

	var oneShotReps []*profile.Report
	for _, seed := range seeds {
		oneShotReps = append(oneShotReps, oneShot(t, seed))
	}

	svc := NewService()
	var sessions []*Session
	for _, seed := range seeds {
		cfg := engineCfg()
		sess, err := svc.Attach(SessionConfig{
			Program: fmt.Sprintf("rnd-%d", seed),
			Device:  gpu.RTX2080Ti,
			Engine:  cfg,
			Run:     randomRun(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	var ids []string
	for i, sess := range sessions {
		if err := sess.Drain(); err != nil {
			t.Fatalf("session %s: %v", sess.ID(), err)
		}
		if sess.State() != StateDone {
			t.Fatalf("session %s state = %s, want done", sess.ID(), sess.State())
		}
		rep, ok := sess.Report()
		if !ok {
			t.Fatalf("session %s has no report after Drain", sess.ID())
		}
		got, want := normBytes(t, rep), normBytes(t, oneShotReps[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: daemon report (%d bytes) differs from one-shot (%d bytes)",
				seeds[i], len(got), len(want))
		}
		// The served bytes are the cached WriteJSON output, not a re-render.
		raw, ok := sess.ReportJSON()
		if !ok {
			t.Fatalf("session %s has no cached JSON", sess.ID())
		}
		var rerendered bytes.Buffer
		if err := rep.WriteJSON(&rerendered); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, rerendered.Bytes()) {
			t.Fatal("cached report JSON diverged from Report.WriteJSON")
		}
		ids = append(ids, sess.ID())
	}

	// Aggregate: concurrent daemon fold ≡ sequential one-shot fold.
	got, err := json.Marshal(svc.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Fold(ids, oneShotReps))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate diverged:\n daemon %s\noneshot %s", got, want)
	}
	var agg Aggregate
	if err := json.Unmarshal(got, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Sessions) != len(seeds) || len(agg.Running) != 0 {
		t.Fatalf("aggregate sessions = %v running = %v", agg.Sessions, agg.Running)
	}
	if agg.Stats.KernelLaunches == 0 || agg.Objects == 0 {
		t.Fatalf("aggregate folded nothing: %+v", agg)
	}
}

// TestFoldOrderIndependent: the aggregate is a pure function of the
// (id, report) set, not of completion order.
func TestFoldOrderIndependent(t *testing.T) {
	reps := []*profile.Report{oneShot(t, 5), oneShot(t, 6), oneShot(t, 7)}
	ids := []string{"s-1", "s-2", "s-3"}
	fwd, err := json.Marshal(Fold(ids, reps))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := json.Marshal(Fold(
		[]string{"s-3", "s-1", "s-2"},
		[]*profile.Report{reps[2], reps[0], reps[1]}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("fold depends on order:\n fwd %s\n rev %s", fwd, rev)
	}
}

// spinSession attaches a session whose single-thread kernel stores
// forever: it signals started from inside kernel execution and can only
// exit through a mid-kernel abort, making shutdown-under-load
// deterministic.
func spinSession(t *testing.T, svc *Service) (*Session, chan struct{}) {
	t.Helper()
	started := make(chan struct{})
	var once sync.Once
	run := func(rt *cuda.Runtime) error {
		buf, err := rt.MallocF32(64, "spin")
		if err != nil {
			return err
		}
		k := &gpu.GoKernel{Name: "spin_kernel", Func: func(th *gpu.Thread) {
			for i := uint64(0); ; i++ {
				th.StoreF32(0, uint64(buf)+4*(i%64), float32(i))
				once.Do(func() { close(started) })
			}
		}}
		return rt.Launch(k, gpu.Dim1(1), gpu.Dim1(1))
	}
	sess, err := svc.Attach(SessionConfig{
		Program: "spin", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, started
}

// TestShutdownMidKernelDegraded: SIGTERM-style drain while a kernel
// executes yields a canceled session whose report is present and marked
// Degraded — not a hung or lost stream.
func TestShutdownMidKernelDegraded(t *testing.T) {
	svc := NewService()
	sess, started := spinSession(t, svc)
	<-started
	svc.Shutdown() // cancels the runtime and waits for finalization

	if sess.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", sess.State())
	}
	err := sess.Drain()
	if !errors.Is(err, cuda.ErrRuntimeCanceled) {
		t.Fatalf("Drain = %v, want the runtime-canceled cause", err)
	}
	var ce *cuda.Error
	if !errors.As(err, &ce) || ce.Code != cuda.ErrCanceled {
		t.Fatalf("Drain = %v, want typed *cuda.Error with ErrCanceled", err)
	}
	rep, ok := sess.Report()
	if !ok {
		t.Fatal("canceled session lost its report")
	}
	if rep.Degraded == nil {
		t.Fatal("mid-kernel cancel produced a clean report, want Degraded")
	}
	if rep.Degraded.SkippedLaunches == 0 {
		t.Fatalf("Degraded = %+v, want the aborted launch counted", rep.Degraded)
	}

	// A draining service admits nothing new.
	if _, err := svc.Attach(SessionConfig{
		Program: "late", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Run: func(rt *cuda.Runtime) error { return nil },
	}); err != ErrClosed {
		t.Fatalf("Attach after Shutdown = %v, want ErrClosed", err)
	}
}

// TestDrainCloseIdempotent is the satellite fix's contract: once a
// session is degraded and finalized, repeated Drain/Close return the
// same cached typed error — the pipeline is drained exactly once, at
// finalization, never re-walked.
func TestDrainCloseIdempotent(t *testing.T) {
	svc := NewService()
	sess, err := svc.Attach(SessionConfig{
		Program: "faulted",
		Device:  gpu.RTX2080Ti,
		Engine:  engineCfg(),
		Faults:  faultinject.New().FailNth(faultinject.Malloc, 1),
		Run: func(rt *cuda.Runtime) error {
			prog := &workloads.RandomProgram{Seed: 11}
			if errs := prog.Run(rt); len(errs) > 0 {
				return errs[0]
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := sess.Drain()
	if first == nil {
		t.Fatal("injected malloc fault did not surface through Drain")
	}
	var ce *cuda.Error
	if !errors.As(first, &ce) || ce.Code != cuda.ErrOOM || !ce.Injected {
		t.Fatalf("Drain = %v, want injected OOM", first)
	}
	if sess.State() != StateFailed {
		t.Fatalf("state = %s, want failed", sess.State())
	}
	rep, ok := sess.Report()
	if !ok || rep.Degraded == nil {
		t.Fatalf("degraded session report missing or clean (ok=%v)", ok)
	}
	// Identity, not just equality: the error is cached, not rebuilt.
	if again := sess.Close(); again != first {
		t.Fatalf("Close on degraded session = %v, want the cached error %v", again, first)
	}
	if again := sess.Close(); again != first {
		t.Fatalf("repeated Close = %v, want the cached error %v", again, first)
	}
	if again := sess.Drain(); again != first {
		t.Fatalf("Drain after Close = %v, want the cached error", again)
	}
}

// TestCancelBeforeKernel: canceling a session between API calls fails
// the next call at the boundary; the session still finalizes with a
// report.
func TestCancelBeforeKernel(t *testing.T) {
	svc := NewService()
	gate := make(chan struct{})
	sess, err := svc.Attach(SessionConfig{
		Program: "gated", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Run: func(rt *cuda.Runtime) error {
			<-gate // cancel lands while no API is in flight
			_, err := rt.MallocF32(64, "late")
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Cancel()
	close(gate)
	if err := sess.Drain(); !errors.Is(err, cuda.ErrRuntimeCanceled) {
		t.Fatalf("Drain = %v, want canceled", err)
	}
	if sess.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", sess.State())
	}
	if _, ok := sess.Report(); !ok {
		t.Fatal("canceled session lost its report")
	}
}

// TestAttachValidates: the daemon wires Config.Validate, so an invalid
// engine configuration is rejected with the typed error before any
// session machinery spins up.
func TestAttachValidates(t *testing.T) {
	svc := NewService()
	cfg := engineCfg()
	cfg.BufferRecords = -1
	_, err := svc.Attach(SessionConfig{
		Program: "bad", Device: gpu.RTX2080Ti, Engine: cfg,
		Run: func(rt *cuda.Runtime) error { return nil },
	})
	var ce *core.ConfigError
	if !errors.As(err, &ce) || ce.Field != "BufferRecords" {
		t.Fatalf("Attach = %v, want ConfigError on BufferRecords", err)
	}
	if len(svc.Sessions()) != 0 {
		t.Fatal("rejected attach left a session behind")
	}
}

// TestSessionMetricsAndTrace: every session's recorder is labeled and
// its trace events land in the shared buffer under the session's own
// PID.
func TestSessionMetricsAndTrace(t *testing.T) {
	svc := NewService()
	var sessions []*Session
	for _, seed := range []int64{21, 22} {
		sess, err := svc.Attach(SessionConfig{
			Program: fmt.Sprintf("rnd-%d", seed),
			Device:  gpu.RTX2080Ti,
			Engine:  engineCfg(),
			Run:     randomRun(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		if err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	all := svc.Metrics()
	if all["service"].Counters["daemon.sessions_started"] != 2 ||
		all["service"].Counters["daemon.sessions_done"] != 2 {
		t.Fatalf("service counters: %+v", all["service"].Counters)
	}
	for _, sess := range sessions {
		m, ok := all[sess.ID()]
		if !ok {
			t.Fatalf("no metrics for %s", sess.ID())
		}
		if m.Labels["session"] != sess.ID() {
			t.Fatalf("session %s labels = %v", sess.ID(), m.Labels)
		}
		if m.Counters["sanitizer.flushes"] == 0 {
			t.Fatalf("session %s recorded no engine activity", sess.ID())
		}
	}
	pids := map[int]bool{}
	for _, ev := range svc.Trace().Events() {
		pids[ev.PID] = true
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("trace PIDs = %v, want one process per session", pids)
	}
}

// TestSessionTraceReplayMatchesReport: a session attached with Trace
// records its event stream without perturbing the profile, and replaying
// the cached container through the one-shot engine reproduces the
// session's report byte for byte.
func TestSessionTraceReplayMatchesReport(t *testing.T) {
	svc := NewService()
	defer svc.Shutdown()

	sess, err := svc.Attach(SessionConfig{
		Program: "rnd-42", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Trace: true, Run: randomRun(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	data, ok := sess.TraceData()
	if !ok || len(data) == 0 {
		t.Fatal("traced session cached no trace data")
	}
	if !bytes.HasPrefix(data, []byte("VXTR")) {
		t.Fatalf("session trace is not a VXTR container: % x", data[:8])
	}

	// Tracing must not perturb the profile: the traced session's report
	// matches the untraced one-shot run.
	rep, _ := sess.Report()
	if !bytes.Equal(normBytes(t, rep), normBytes(t, oneShot(t, 42))) {
		t.Fatal("traced session report differs from the untraced one-shot run")
	}

	cfg := engineCfg()
	cfg.Program = "rnd-42"
	p, err := core.Profile(trace.NewSource(bytes.NewReader(data), gpu.RTX2080Ti), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	if !bytes.Equal(normBytes(t, p.Report()), normBytes(t, rep)) {
		t.Fatal("replayed trace report differs from the session report")
	}

	// An untraced session caches nothing.
	plain, err := svc.Attach(SessionConfig{
		Program: "rnd-9", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.TraceData(); ok {
		t.Fatal("untraced session reports trace data")
	}
}

// TestErrorEnvelopeSchema pins the one typed error shape every /v1
// surface speaks: `{"error": {"code", "message", "field"?}}` — exactly
// those keys — and the classification from the engine's native error
// types to stable codes and HTTP statuses.
func TestErrorEnvelopeSchema(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		code   string
		field  string
		status int
	}{
		{"quota", &QuotaError{Running: 1, Queued: 2, MaxRunning: 1, MaxQueued: 2}, CodeQuotaExceeded, "", 429},
		{"option", &cliconfig.OptionError{Option: "sample", Message: "-sample must be >= 1"}, CodeInvalidOption, "sample", 400},
		{"engine config", &core.ConfigError{Field: "KernelSamplingPeriod", Reason: "must be >= 1"}, CodeInvalidOption, "sample", 400},
		{"trace", &trace.FormatError{Offset: 12, Msg: "truncated chunk header"}, CodeTraceMalformed, "", 400},
		{"draining", ErrClosed, CodeDraining, "", 503},
		{"passthrough", &APIError{Code: CodeUnknownSession, Message: "no session s17"}, CodeUnknownSession, "", 404},
		{"fallback", errors.New("boom"), CodeInternal, "", 500},
	}
	for _, tc := range cases {
		ae := apiError(tc.err, CodeInternal)
		if ae.Code != tc.code || ae.Field != tc.field {
			t.Errorf("%s: classified as code=%q field=%q, want %q/%q", tc.name, ae.Code, ae.Field, tc.code, tc.field)
		}
		if ae.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
		if got := httpStatus(ae.Code); got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}

		raw, err := json.Marshal(errorEnvelope{Error: ae})
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top["error"] == nil {
			t.Errorf("%s: envelope top-level keys = %v, want exactly {error}", tc.name, top)
			continue
		}
		var inner map[string]json.RawMessage
		if err := json.Unmarshal(top["error"], &inner); err != nil {
			t.Fatal(err)
		}
		for k := range inner {
			if k != "code" && k != "message" && k != "field" {
				t.Errorf("%s: unexpected envelope key %q", tc.name, k)
			}
		}
		if inner["code"] == nil || inner["message"] == nil {
			t.Errorf("%s: envelope missing code/message: %s", tc.name, top["error"])
		}
		if _, hasField := inner["field"]; hasField != (tc.field != "") {
			t.Errorf("%s: field presence = %v, want %v (%s)", tc.name, hasField, tc.field != "", top["error"])
		}
	}
}
