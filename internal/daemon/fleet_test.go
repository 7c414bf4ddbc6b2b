package daemon

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
	"valueexpert/internal/trace"
)

// gatedSession attaches a session whose run blocks on a channel before
// doing any GPU work, so the test controls exactly when its running
// slot frees up.
func gatedSession(t *testing.T, svc *Service, name string, seed int64) (*Session, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	sess, err := svc.Attach(SessionConfig{
		Program: name, Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Run: func(rt *cuda.Runtime) error {
			<-gate
			return randomRun(seed)(rt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, gate
}

// waitState polls until the session reaches want (admission dispatch
// happens on another goroutine, so transitions are asynchronous).
func waitState(t *testing.T, sess *Session, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sess.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s, want %s", sess.ID(), sess.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueueFIFO: with MaxRunning=1, admissions past the cap
// queue in FIFO order with 1-based positions, overflow is a typed
// *QuotaError, and queued sessions start in order as slots free up.
func TestAdmissionQueueFIFO(t *testing.T) {
	t.Parallel()
	svc := NewService(WithLimits(Limits{MaxRunning: 1, MaxQueued: 2}))
	defer svc.Shutdown()

	blocker, gate0 := gatedSession(t, svc, "blocker", 1)
	if blocker.State() != StateRunning {
		t.Fatalf("blocker state = %s, want running", blocker.State())
	}

	q1, gate1 := gatedSession(t, svc, "rnd-2", 2)
	q2, gate2 := gatedSession(t, svc, "rnd-3", 3)
	if q1.State() != StateQueued || q2.State() != StateQueued {
		t.Fatalf("states = %s, %s; want queued, queued", q1.State(), q2.State())
	}
	if p1, p2 := q1.Info().Queue, q2.Info().Queue; p1 != 1 || p2 != 2 {
		t.Fatalf("queue positions = %d, %d; want 1, 2", p1, p2)
	}

	// Past the queue bound: a typed quota rejection, mapped to 429.
	_, err := svc.Attach(SessionConfig{
		Program: "overflow", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Run: randomRun(4),
	})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("overflow error = %v (%T), want *QuotaError", err, err)
	}
	if qe.Running != 1 || qe.Queued != 2 || qe.MaxRunning != 1 || qe.MaxQueued != 2 {
		t.Fatalf("quota error fields = %+v", qe)
	}
	if ae := apiError(err, CodeInternal); ae.Code != CodeQuotaExceeded {
		t.Fatalf("apiError code = %s, want %s", ae.Code, CodeQuotaExceeded)
	} else if httpStatus(ae.Code) != 429 {
		t.Fatalf("quota status = %d, want 429", httpStatus(ae.Code))
	}

	// Finish the blocker: q1 is dispatched (FIFO), q2 stays queued at
	// position 1.
	close(gate0)
	waitState(t, q1, StateRunning)
	if q2.State() != StateQueued {
		t.Fatalf("q2 state = %s, want queued while q1 runs", q2.State())
	}
	if p := q2.Info().Queue; p != 1 {
		t.Fatalf("q2 position after q1 dispatch = %d, want 1", p)
	}

	close(gate1)
	waitState(t, q2, StateRunning)
	close(gate2)
	for _, sess := range []*Session{blocker, q1, q2} {
		<-sess.Done()
		if sess.State() != StateDone {
			t.Fatalf("session %s final state = %s", sess.Program(), sess.State())
		}
	}
	// The queued sessions' reports match one-shot runs of the same seeds:
	// queueing delayed the stream, it did not change it.
	for seed, sess := range map[int64]*Session{2: q1, 3: q2} {
		rep, ok := sess.Report()
		if !ok {
			t.Fatalf("session %s has no report", sess.Program())
		}
		if !bytes.Equal(normBytes(t, rep), normBytes(t, oneShot(t, seed))) {
			t.Errorf("queued session %s report differs from one-shot", sess.Program())
		}
	}
}

// TestCancelQueuedSession: DELETE on a queued session must not wait for
// a running slot — Cancel force-starts its (canceled) stream so it
// finalizes immediately, and the queue position of sessions behind it
// shifts down.
func TestCancelQueuedSession(t *testing.T) {
	t.Parallel()
	svc := NewService(WithLimits(Limits{MaxRunning: 1, MaxQueued: 2}))
	defer svc.Shutdown()

	_, gate := gatedSession(t, svc, "blocker", 1)
	defer close(gate)
	q1, gate1 := gatedSession(t, svc, "q1", 2)
	q2, gate2 := gatedSession(t, svc, "q2", 3)
	defer close(gate2)

	// Pre-open q1's gate: Close force-starts the (canceled) stream, whose
	// run must be able to proceed to observe the cancellation.
	close(gate1)
	q1.Close() // returns the cancellation error; the state assertion below covers it
	<-q1.Done()
	if st := q1.State(); st != StateCanceled && st != StateFailed {
		t.Fatalf("canceled queued session state = %s", st)
	}
	if p := q2.Info().Queue; p != 1 {
		t.Fatalf("q2 position after q1 cancel = %d, want 1", p)
	}
}

// TestShutdownDrainsQueued: service drain with a stalled runner and a
// queued session behind it terminates both — the queued session must
// not be stranded waiting for a slot that will never free.
func TestShutdownDrainsQueued(t *testing.T) {
	t.Parallel()
	svc := NewService(WithLimits(Limits{MaxRunning: 1, MaxQueued: 2}))
	blocker, started := spinSession(t, svc)
	<-started
	q1, gate := gatedSession(t, svc, "q1", 2)
	// Pre-open the queued session's gate: once Shutdown force-starts it,
	// its run proceeds against the canceled runtime and finalizes.
	close(gate)

	done := make(chan struct{})
	go func() { svc.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung with a queued session")
	}
	for _, sess := range []*Session{blocker, q1} {
		select {
		case <-sess.Done():
		default:
			t.Fatalf("session %s not finalized after Shutdown", sess.Program())
		}
	}
	if _, err := svc.Attach(SessionConfig{
		Program: "late", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(9),
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Attach error = %v, want ErrClosed", err)
	}
}

// TestDoneFreesRunningSlot: by the time Done() is closed, the session's
// running slot is free, so a closed-loop client that attaches again as
// soon as its previous session is done is never refused — even with no
// queue to absorb the overlap.
func TestDoneFreesRunningSlot(t *testing.T) {
	t.Parallel()
	svc := NewService(WithLimits(Limits{MaxRunning: 1, MaxQueued: 0}))
	defer svc.Shutdown()
	for i := 0; i < 200; i++ {
		sess, err := svc.Attach(SessionConfig{
			Program: "empty", Device: gpu.RTX2080Ti, Engine: engineCfg(),
			Run: func(rt *cuda.Runtime) error { return nil },
		})
		var qe *QuotaError
		if errors.As(err, &qe) {
			t.Fatalf("cycle %d: attach right after Done refused: %v", i, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		<-sess.Done()
	}
}

// TestStoreSpillRestore: a finished session spills report + trace to
// the content-addressed store and a fresh Service over the same
// directory serves both byte-identically, marked Restored.
func TestStoreSpillRestore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithStore(st))
	sess, err := svc.Attach(SessionConfig{
		Program: "rnd-11", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Trace: true, Run: randomRun(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	raw, ok := sess.ReportJSON()
	if !ok {
		t.Fatal("no report after finalize")
	}
	tr, ok := sess.TraceData()
	if !ok {
		t.Fatal("no trace after finalize")
	}
	id := sess.ID()
	svc.Shutdown()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithStore(st2))
	defer svc2.Shutdown()
	got := svc2.Session(id)
	if got == nil {
		t.Fatalf("session %s not restored", id)
	}
	info := got.Info()
	if !info.Restored || info.State != StateDone {
		t.Fatalf("restored info = %+v", info)
	}
	raw2, ok := got.ReportJSON()
	if !ok || !bytes.Equal(raw, raw2) {
		t.Fatalf("restored report differs (ok=%v, %d vs %d bytes)", ok, len(raw), len(raw2))
	}
	tr2, ok := got.TraceData()
	if !ok || !bytes.Equal(tr, tr2) {
		t.Fatalf("restored trace differs (ok=%v, %d vs %d bytes)", ok, len(tr), len(tr2))
	}
	if rep, ok := got.Report(); !ok || rep.Program != "rnd-11" {
		t.Fatalf("restored Report() = %v, %v", rep, ok)
	}
	// Session IDs continue past the restored sequence: a new admission
	// must not collide with a stored manifest.
	fresh, err := svc2.Attach(SessionConfig{
		Program: "rnd-12", Device: gpu.RTX2080Ti, Engine: engineCfg(), Run: randomRun(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() == id {
		t.Fatalf("fresh session reused restored ID %s", id)
	}
	<-fresh.Done()
}

// TestPartialReportNonPerturbing: a mid-run snapshot parses as a valid
// report observing a prefix of the run, and requesting it leaves the
// final report byte-identical to a one-shot profile of the same
// program — the streaming path must not perturb the aggregate.
func TestPartialReportNonPerturbing(t *testing.T) {
	t.Parallel()
	composite := func(gate, phase1 chan struct{}) func(rt *cuda.Runtime) error {
		return func(rt *cuda.Runtime) error {
			if err := randomRun(13)(rt); err != nil {
				return err
			}
			if phase1 != nil {
				close(phase1)
			}
			if gate != nil {
				<-gate
			}
			return randomRun(14)(rt)
		}
	}

	// Baseline: the same two-phase run through the one-shot lifecycle.
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	cfg := engineCfg()
	cfg.Program = "composite"
	p, err := core.Profile(cuda.NewLiveSource(rt, composite(nil, nil)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	want := normBytes(t, p.Report())

	svc := NewService()
	defer svc.Shutdown()
	gate, phase1 := make(chan struct{}), make(chan struct{})
	sess, err := svc.Attach(SessionConfig{
		Program: "composite", Device: gpu.RTX2080Ti, Engine: engineCfg(),
		Run: composite(gate, phase1),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-phase1

	type partialResult struct {
		raw     []byte
		partial bool
	}
	resCh := make(chan partialResult, 1)
	go func() {
		raw, partial := sess.PartialReport(nil)
		resCh <- partialResult{raw, partial}
	}()
	// Wait until the snapshot request is registered with the stream's
	// interceptor, then let phase 2 run; its first API-event boundary
	// publishes the snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess.mu.Lock()
		sn := sess.snap
		sess.mu.Unlock()
		if sn != nil && sn.want.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	res := <-resCh
	if !res.partial {
		t.Fatal("PartialReport returned the final report, want a mid-run snapshot")
	}
	snap, err := profile.ReadJSON(bytes.NewReader(res.raw))
	if err != nil {
		t.Fatalf("partial report does not parse: %v", err)
	}
	if snap.Program != "composite" || len(snap.Objects) == 0 {
		t.Fatalf("partial report implausible: program=%q objects=%d", snap.Program, len(snap.Objects))
	}

	<-sess.Done()
	rep, ok := sess.Report()
	if !ok {
		t.Fatal("no final report")
	}
	if !bytes.Equal(normBytes(t, rep), want) {
		t.Error("final report differs after a partial snapshot; streaming perturbed the aggregate")
	}
	// After finalization the same call serves the final bytes.
	raw, partial := sess.PartialReport(nil)
	if partial || raw == nil {
		t.Fatalf("post-finalize PartialReport = (%d bytes, partial=%v)", len(raw), partial)
	}
}

// remoteOpts is the canonical option set the remote tests validate
// against; engineCfg()'s shape expressed through the option schema.
func remoteOpts() cliconfig.Options {
	return cliconfig.Options{Coarse: true, Fine: true, Sample: 1, Scale: 1}
}

// TestRemoteAttachByteIdentity: a program streamed over the attach
// socket from the "client" process yields a session report
// byte-identical to profiling the same program in-process with the
// same options. The handshake's scale is ignored, even an invalid one:
// the client sized and ran the program.
func TestRemoteAttachByteIdentity(t *testing.T) {
	t.Parallel()
	opts := remoteOpts()
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := opts.EngineConfig("rnd-21")
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p, err := core.Profile(cuda.NewLiveSource(rt, randomRun(21)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	want := normBytes(t, p.Report())

	svc := NewService()
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, HandlerConfig{Defaults: opts, Device: "RTX 2080 Ti"})
	defer as.Close()

	rs, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{
		Program: "rnd-21", Trace: true, Options: []byte(`{"scale": 0}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Info().State != StateRunning {
		t.Fatalf("attach state = %s, want running", rs.Info().State)
	}
	if err := rs.Run(gpu.RTX2080Ti, randomRun(21)); err != nil {
		t.Fatal(err)
	}
	info, raw, err := rs.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("remote session final state = %s (error %q)", info.State, info.Error)
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("completion report does not parse: %v", err)
	}
	if !bytes.Equal(normBytes(t, rep), want) {
		t.Error("remote-attach report differs from in-process profile")
	}
	// The streamed container was kept server-side (Trace: true) and
	// replays to the same report.
	sess := svc.Session(info.ID)
	if sess == nil {
		t.Fatalf("session %s not found", info.ID)
	}
	tr, ok := sess.TraceData()
	if !ok {
		t.Fatal("no server-side trace for Trace:true remote session")
	}
	rt2 := cuda.NewRuntime(gpu.RTX2080Ti)
	p2, err := core.Profile(trace.NewSourceOn(bytes.NewReader(tr), rt2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2.Detach()
	if !bytes.Equal(normBytes(t, p2.Report()), want) {
		t.Error("server-side trace replay differs from in-process profile")
	}
}

// TestRemoteAttachQueuedThenAdmitted: a remote stream admitted into a
// full service queues; the client can already write into the socket
// buffer, and once the slot frees the stream replays to the exact
// in-process report — the acceptance property at unit scope.
func TestRemoteAttachQueuedThenAdmitted(t *testing.T) {
	t.Parallel()
	opts := remoteOpts()
	cfg, err := opts.EngineConfig("rnd-23")
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p, err := core.Profile(cuda.NewLiveSource(rt, randomRun(23)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	want := normBytes(t, p.Report())

	svc := NewService(WithLimits(Limits{MaxRunning: 1, MaxQueued: 2}))
	defer svc.Shutdown()
	_, gate := gatedSession(t, svc, "blocker", 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, HandlerConfig{Defaults: opts, Device: "RTX 2080 Ti"})
	defer as.Close()

	rs, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{Program: "rnd-23"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Info().State != StateQueued || rs.Info().Queue != 1 {
		t.Fatalf("attach info = %+v, want queued at position 1", rs.Info())
	}
	// Stream while still queued: the socket buffer absorbs the events
	// (this program is small); the daemon reads nothing until admission.
	if err := rs.Run(gpu.RTX2080Ti, randomRun(23)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	info, raw, err := rs.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("final state = %s (error %q)", info.State, info.Error)
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normBytes(t, rep), want) {
		t.Error("queued-then-admitted remote report differs from in-process profile")
	}

	// Quota rejection crosses the wire as the typed envelope: one runner
	// plus two queued sessions fill the service again.
	_, gate2 := gatedSession(t, svc, "q2", 3)
	defer close(gate2)
	_, gate3 := gatedSession(t, svc, "q3", 4)
	defer close(gate3)
	_, gate4 := gatedSession(t, svc, "q4", 5)
	defer close(gate4)
	_, err = DialAttach("tcp", ln.Addr().String(), AttachRequest{Program: "rnd-24"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeQuotaExceeded {
		t.Fatalf("over-quota dial error = %v, want APIError %s", err, CodeQuotaExceeded)
	}
}

// TestRemoteAttachDisconnect: a client that drops mid-stream surfaces
// as a *trace.FormatError; the session finalizes Failed with the
// partial report rather than hanging — the same degradation contract as
// fault injection.
func TestRemoteAttachDisconnect(t *testing.T) {
	t.Parallel()
	opts := remoteOpts()
	svc := NewService()
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, HandlerConfig{Defaults: opts, Device: "RTX 2080 Ti"})
	defer as.Close()

	rs, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{Program: "rnd-25"})
	if err != nil {
		t.Fatal(err)
	}
	// Stream part of a program, then vanish without the end chunk.
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	rec := trace.Record(rt, rs.conn, trace.FormatBinary)
	if err := randomRun(25)(rt); err != nil {
		t.Fatal(err)
	}
	_ = rec // never Closed: the container is left unterminated
	rs.Close()

	sess := svc.Session(rs.Info().ID)
	if sess == nil {
		t.Fatalf("session %s not found", rs.Info().ID)
	}
	<-sess.Done()
	if sess.State() != StateFailed {
		t.Fatalf("disconnected session state = %s, want failed", sess.State())
	}
	var fe *trace.FormatError
	if err := sess.Drain(); !errors.As(err, &fe) {
		t.Fatalf("disconnected session error = %v, want *trace.FormatError", err)
	}
	if _, ok := sess.ReportJSON(); !ok {
		t.Error("disconnected session has no partial report")
	}
}

// TestRemoteAttachRejectsOptions: the handshake decodes options through
// the same strict decoder as POST /v1/sessions — an unknown key is an
// invalid_option naming it, keys match case-insensitively — and a
// non-empty faults spec is rejected, because the faults would have to
// arm the client's runtime, which the daemon never sees.
func TestRemoteAttachRejectsOptions(t *testing.T) {
	t.Parallel()
	svc := NewService()
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := svc.ServeAttach(ln, HandlerConfig{Defaults: remoteOpts(), Device: "RTX 2080 Ti"})
	defer as.Close()

	for _, tc := range []struct {
		options, field, msg string
	}{
		{`{"faults": "malloc@1"}`, "faults", "-faults"},
		{`{"sampel": 20}`, "sampel", `unknown option "sampel"`},
		{`{"Sample": 0}`, "sample", "-sample must be >= 1"},
		{`{"workers": 2}`, "workers", `unknown option "workers"`},
		{`{"depth": 2}`, "depth", `unknown option "depth"`},
	} {
		_, err := DialAttach("tcp", ln.Addr().String(), AttachRequest{
			Program: "rnd-27", Options: []byte(tc.options),
		})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidOption || ae.Field != tc.field ||
			!strings.Contains(ae.Message, tc.msg) {
			t.Errorf("options %s: dial error = %#v, want %s on field %q containing %q",
				tc.options, err, CodeInvalidOption, tc.field, tc.msg)
		}
	}
	if n := len(svc.Sessions()); n != 0 {
		t.Fatalf("rejected handshakes left %d sessions", n)
	}
}
