// Package daemon refactors the one-shot run lifecycle into a
// multi-tenant profiling service: where Profile(src, cfg) owns exactly
// one application for exactly one call, a daemon Service attaches any
// number of applications concurrently, each as a long-lived session
// consuming its own event stream through a dedicated handler goroutine.
// The service layers process-level machinery a single profiler cannot
// provide — a deterministic aggregate folded over completed sessions, a
// shared self-trace where every session renders as its own Perfetto
// process, and graceful drain: shutdown cancels each session's runtime,
// a mid-kernel cancel rides the engine's existing degradation path, and
// the session still yields a report (marked Degraded) rather than a
// hung or lost stream.
//
// Concurrency contract: each session's runtime is driven only by its
// stream goroutine (cuda.Runtime is not concurrent-safe beyond the
// cancel flag), so the service never touches a running session's
// profiler. A session finalizes exactly once, on its own goroutine —
// detach (which drains the pipeline), report, serialized bytes — and
// everything served afterwards reads that immutable cached state.
package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/trace"
	"valueexpert/internal/vflow"
)

// ErrClosed is returned by Attach after Shutdown began: a draining
// service accepts no new sessions.
var ErrClosed = errors.New("daemon: service is shutting down")

// State is a session's lifecycle position.
type State string

// The session states. A queued session becomes running exactly once,
// and a running session leaves StateRunning exactly once.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Limits bounds the service's admission state. The zero value is
// unlimited (every Attach starts its stream immediately), preserving
// the pre-quota behavior.
type Limits struct {
	// MaxRunning caps concurrently *running* streams; <= 0 is unlimited.
	MaxRunning int
	// MaxQueued bounds the FIFO admission queue used once MaxRunning
	// streams are running; <= 0 means no queue, so an Attach past the cap
	// is rejected immediately with a QuotaError.
	MaxQueued int
}

// Option configures a Service at construction.
type Option func(*Service)

// WithLimits installs admission control: at most l.MaxRunning streams
// run concurrently, with up to l.MaxQueued sessions waiting in FIFO
// order; admissions past both bounds fail with a *QuotaError.
func WithLimits(l Limits) Option {
	return func(s *Service) { s.limits = l }
}

// WithStore attaches a persistent report store: finalized sessions
// spill report + trace to st and flush the in-memory copies, and a new
// Service opened on the same store restores the stored sessions into
// its listing, serving their exact finalized bytes.
func WithStore(st *Store) Option {
	return func(s *Service) { s.store = st }
}

// Service is the multi-tenant profiler host. The zero value is not
// usable; construct with NewService.
type Service struct {
	tel    *telemetry.Recorder
	trace  *telemetry.Buffer
	limits Limits
	store  *Store

	mu       sync.Mutex
	seq      int
	sessions map[string]*Session
	queue    []*Session // FIFO admission queue, dispatch order
	running  int        // streams currently running (queued excluded)
	closed   bool
	wg       sync.WaitGroup
}

// NewService creates a service with its own telemetry recorder and the
// shared self-trace buffer sessions emit into. With no options it is
// the unlimited in-memory service; WithLimits adds admission control
// and WithStore the persistent report store (restoring any sessions the
// store already holds).
func NewService(opts ...Option) *Service {
	s := &Service{
		tel:      telemetry.New(),
		trace:    telemetry.NewBuffer(),
		sessions: make(map[string]*Session),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.store != nil {
		s.restore()
	}
	return s
}

// restore loads the store's finalized sessions into the registry as
// restored sessions: listed, servable, already done. The ID sequence
// continues past the highest stored sequence so restarts never reuse an
// ID the store still references.
func (s *Service) restore() {
	ms, err := s.store.Manifests()
	if err != nil {
		s.tel.Counter("daemon.store_errors").Inc()
		return
	}
	done := make(chan struct{})
	close(done)
	for _, m := range ms {
		sess := &Session{
			svc: s, id: m.ID, seq: m.Seq, program: m.Program,
			device: m.Device, state: m.State, manifest: m,
			restored: true, done: done,
		}
		s.sessions[m.ID] = sess
		if m.Seq > s.seq {
			s.seq = m.Seq
		}
	}
	if len(ms) > 0 {
		s.tel.Counter("daemon.sessions_restored").Add(uint64(len(ms)))
	}
}

// SessionConfig describes one application to attach.
type SessionConfig struct {
	// Program names the application in reports and listings.
	Program string
	// Device is the simulated GPU the session runs on.
	Device gpu.Profile
	// Engine selects the analyses; validated by Attach (Config.Validate).
	// Telemetry is overridden: every session gets its own recorder,
	// labeled with the session ID and funneled into the service's shared
	// self-trace as a separate process.
	Engine core.Config
	// Faults, when non-nil, is armed on the session's runtime before the
	// profiler attaches (the same ordering vxprof uses).
	Faults *faultinject.Plan
	// Trace, when true, additionally records the session's API+access
	// stream: a streaming trace recorder chains in front of the profiler
	// (the profiled report stays byte-identical) and the serialized
	// container is cached at finalization (Session.TraceData, the
	// /sessions/{id}/trace endpoint).
	Trace bool
	// TraceFormat selects the recorded container encoding; the zero
	// value is the columnar binary format.
	TraceFormat trace.Format
	// Run issues the application's GPU work against the session runtime.
	Run func(rt *cuda.Runtime) error
	// Source, when non-nil, supplies the session's event source instead
	// of wrapping Run in a LiveSource — the remote-attach seam, where the
	// stream replays from a socket (trace.NewSourceOn). Exactly one of
	// Run and Source must be set. The returned source must use rt as its
	// runtime so cancellation and fault plans apply.
	Source func(rt *cuda.Runtime) cuda.EventSource
}

// Attach admits an application as a new session: a fresh cancelable
// runtime, a per-session telemetry recorder, and a stream handler
// goroutine driving the event stream through the engine. An invalid
// engine configuration returns its Config.Validate error and admits
// nothing. Under WithLimits, an Attach past the running cap joins the
// FIFO admission queue (StateQueued — its stream starts when a running
// session finalizes), and past the queue bound it fails with a typed
// *QuotaError.
func (s *Service) Attach(sc SessionConfig) (*Session, error) {
	if err := sc.Engine.Validate(); err != nil {
		return nil, err
	}
	if sc.Run == nil && sc.Source == nil {
		return nil, errors.New("daemon: SessionConfig needs Run or Source")
	}
	if sc.Engine.Program == "" {
		sc.Engine.Program = sc.Program
	}
	src := sc.Source
	if src == nil {
		run := sc.Run
		src = func(rt *cuda.Runtime) cuda.EventSource {
			return cuda.NewLiveSource(rt, run)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Admission: the cap counts *running* streams only; queued sessions
	// cost a registry entry and a socket, not a pipeline.
	queued := false
	if s.limits.MaxRunning > 0 && s.running >= s.limits.MaxRunning {
		if len(s.queue) >= s.limits.MaxQueued {
			qe := &QuotaError{
				Running: s.running, Queued: len(s.queue),
				MaxRunning: s.limits.MaxRunning, MaxQueued: s.limits.MaxQueued,
			}
			s.mu.Unlock()
			s.tel.Counter("daemon.sessions_rejected").Inc()
			return nil, qe
		}
		queued = true
	}
	s.seq++
	id := fmt.Sprintf("s-%d", s.seq)

	rt := cuda.NewRuntime(sc.Device)
	// Arm mid-kernel cancel checks before any kernel runs, so Shutdown
	// can abort a session stuck inside a launch.
	rt.EnableCancel()
	if sc.Faults != nil {
		rt.ArmFaults(sc.Faults)
	}

	// Per-session recorder: labeled for the /metrics export, traced into
	// the shared buffer under the session's own PID so Perfetto shows one
	// process per session.
	tel := telemetry.New()
	tel.SetProgram(sc.Program)
	tel.SetLabel("session", id)
	tel.SetLabel("device", sc.Device.Name)
	tel.AttachTrace(telemetry.ProcessSink(s.trace, s.seq,
		fmt.Sprintf("session %s (%s)", id, sc.Program)))
	sc.Engine.Telemetry = tel

	sess := &Session{
		svc:      s,
		id:       id,
		seq:      s.seq,
		program:  sc.Program,
		device:   sc.Device.Name,
		rt:       rt,
		cfg:      sc.Engine,
		tel:      tel,
		src:      src,
		traceOn:  sc.Trace,
		traceFmt: sc.TraceFormat,
		done:     make(chan struct{}),
		state:    StateRunning,
	}
	s.sessions[id] = sess
	// The WaitGroup covers queued sessions too: Shutdown force-starts
	// them (their canceled runtimes fail fast), so every admitted session
	// finalizes with a report.
	s.wg.Add(1)
	if queued {
		sess.state = StateQueued
		s.queue = append(s.queue, sess)
		s.observeAdmissionLocked()
		s.mu.Unlock()
		s.tel.Counter("daemon.sessions_started").Inc()
		s.tel.Counter("daemon.sessions_queued").Inc()
		return sess, nil
	}
	s.running++
	s.observeAdmissionLocked()
	s.mu.Unlock()

	s.tel.Counter("daemon.sessions_started").Inc()
	go sess.stream()
	return sess, nil
}

// observeAdmissionLocked samples the admission gauges; callers hold
// s.mu.
func (s *Service) observeAdmissionLocked() {
	s.tel.Gauge("daemon.sessions_running").Observe(int64(s.running))
	s.tel.Gauge("daemon.queue_depth").Observe(int64(len(s.queue)))
}

// sessionFinished retires one running slot and dispatches the queue
// head, if any. Every stream goroutine calls it exactly once, so the
// running count and queue drain stay consistent no matter how the
// session ended (done, failed, canceled, force-started at shutdown).
func (s *Service) sessionFinished() {
	s.mu.Lock()
	s.running--
	var next *Session
	if len(s.queue) > 0 && (s.limits.MaxRunning <= 0 || s.running < s.limits.MaxRunning) {
		next = s.queue[0]
		s.queue = s.queue[1:]
		s.running++
	}
	s.observeAdmissionLocked()
	s.mu.Unlock()
	if next != nil {
		next.markRunning()
		go next.stream()
	}
}

// forceStart pops sess out of the admission queue (if still there) and
// starts its stream immediately, outside the running cap — the path
// Cancel and Shutdown use so a queued session still finalizes promptly
// with a report instead of waiting for a slot that may never free.
func (s *Service) forceStart(sess *Session) {
	s.mu.Lock()
	found := false
	for i, q := range s.queue {
		if q == sess {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			found = true
			break
		}
	}
	if found {
		s.running++
		s.observeAdmissionLocked()
	}
	s.mu.Unlock()
	if found {
		sess.markRunning()
		go sess.stream()
	}
}

// queuePos returns sess's 1-based position in the admission queue, 0
// when not queued.
func (s *Service) queuePos(sess *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == sess {
			return i + 1
		}
	}
	return 0
}

// Session returns the session with the given ID, or nil.
func (s *Service) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Sessions returns every attached session in admission order.
func (s *Service) Sessions() []*Session {
	s.mu.Lock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Aggregate folds every finalized session's report into the
// process-level aggregate; still-running sessions are listed but not
// folded (their profiles are untouchable while the stream goroutine owns
// them).
func (s *Service) Aggregate() Aggregate {
	var (
		ids     []string
		reps    []*profile.Report
		running []string
	)
	for _, sess := range s.Sessions() {
		if rep, ok := sess.Report(); ok {
			ids = append(ids, sess.id)
			reps = append(reps, rep)
		} else {
			running = append(running, sess.id)
		}
	}
	agg := Fold(ids, reps)
	agg.Running = running
	return agg
}

// Metrics exports the service recorder plus every session recorder,
// keyed by session ID.
func (s *Service) Metrics() map[string]telemetry.Metrics {
	out := map[string]telemetry.Metrics{"service": s.tel.Metrics()}
	for _, sess := range s.Sessions() {
		out[sess.id] = sess.tel.Metrics()
	}
	return out
}

// Trace returns the shared self-trace buffer (one Perfetto process per
// session).
func (s *Service) Trace() *telemetry.Buffer { return s.trace }

// Shutdown drains the service: no new sessions are admitted, every
// running session's runtime is canceled (aborting a kernel mid-execution
// through the engine's degradation path), queued sessions are
// force-started against their canceled runtimes so they finalize
// immediately, and the call blocks until all stream handlers have
// finalized. Idempotent.
func (s *Service) Shutdown() {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.Cancel()
	}
	s.wg.Wait()
}

// Session is one attached application: a runtime, the engine profiling
// it, and the stream handler goroutine in between. All exported methods
// are safe from any goroutine.
type Session struct {
	svc      *Service
	id       string
	seq      int
	program  string
	device   string
	rt       *cuda.Runtime // nil on restored sessions
	cfg      core.Config
	tel      *telemetry.Recorder // nil on restored sessions
	src      func(rt *cuda.Runtime) cuda.EventSource
	traceOn  bool
	traceFmt trace.Format
	restored bool // loaded from the store at startup; never ran here

	done chan struct{}

	mu         sync.Mutex
	state      State
	closing    bool
	prof       *core.Profiler
	report     *profile.Report
	reportJSON []byte
	traceData  []byte
	runErr     error
	manifest   *Manifest    // set once spilled to (or restored from) the store
	snap       *snapshotter // set by the stream goroutine at attach time

	partialMu      sync.Mutex
	partialWaiters []chan []byte
}

// markRunning transitions a queued session to running as its stream is
// dispatched.
func (sess *Session) markRunning() {
	sess.mu.Lock()
	if sess.state == StateQueued {
		sess.state = StateRunning
	}
	sess.mu.Unlock()
}

// stream is the session's handler goroutine: it drives the application's
// event stream through the engine, then finalizes exactly once. The
// terminal error and serialized report are cached here; nothing after
// this re-walks the pipeline.
func (sess *Session) stream() {
	defer sess.svc.wg.Done()
	src := sess.src(sess.rt)
	// Interceptor chain, innermost out: profiler ← snapshotter ← trace
	// recorder. The snapshotter serves ?partial=1 requests on this
	// goroutine, between API events (where the pipeline has no in-flight
	// launch), so a mid-run report never races the engine and never
	// perturbs the final bytes. When tracing, the recorder chains in
	// front of everything — it sees every event first, writes it to the
	// container, and forwards it, so the profiled report is identical
	// with or without tracing.
	var rec *trace.Recorder
	var traceBuf bytes.Buffer
	p, err := cuda.Drive(src, func(rt *cuda.Runtime) *core.Profiler {
		prof := core.Attach(rt, sess.cfg)
		snap := &snapshotter{inner: rt.Interceptor(), prof: prof, sess: sess}
		rt.SetInterceptor(snap)
		sess.mu.Lock()
		sess.snap = snap
		sess.mu.Unlock()
		if sess.traceOn {
			rec = trace.Record(rt, &traceBuf, sess.traceFmt)
		}
		return prof
	})
	if rec != nil {
		if cerr := rec.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	// Detach drains any in-flight launch; from here the profiler is
	// exclusively this goroutine's to read, and then immutable.
	p.Detach()
	rep := p.Report()
	var buf bytes.Buffer
	if jerr := rep.WriteJSON(&buf); jerr != nil && err == nil {
		err = jerr
	}

	state := StateDone
	counter := "daemon.sessions_done"
	switch {
	case err == nil:
	case errors.Is(err, cuda.ErrRuntimeCanceled):
		state = StateCanceled
		counter = "daemon.sessions_canceled"
	default:
		state = StateFailed
		counter = "daemon.sessions_failed"
	}

	sess.mu.Lock()
	sess.prof = p
	sess.report = rep
	sess.reportJSON = buf.Bytes()
	if rec != nil {
		sess.traceData = traceBuf.Bytes()
	}
	sess.runErr = err
	sess.state = state
	sess.mu.Unlock()
	if sess.svc.store != nil {
		sess.spill()
	}
	sess.svc.tel.Counter(counter).Inc()
	// Free the running slot before announcing completion: a client that
	// attaches again as soon as Done() closes must find the slot free.
	sess.svc.sessionFinished()
	close(sess.done)
}

// spill writes the finalized artifacts to the persistent store and
// flushes the in-memory copies (GetAndFlush), so completed sessions
// cost disk, not heap. On any store error the in-memory copies are kept
// — a broken disk degrades to the old all-in-memory behavior.
func (sess *Session) spill() {
	st := sess.svc.store
	sess.mu.Lock()
	m := &Manifest{
		ID: sess.id, Seq: sess.seq, Program: sess.program,
		Device: sess.device, State: sess.state,
	}
	if sess.report != nil && sess.report.Degraded != nil {
		m.Degraded = true
	}
	if sess.runErr != nil {
		m.Error = sess.runErr.Error()
	}
	rj, td := sess.reportJSON, sess.traceData
	sess.mu.Unlock()

	var err error
	if len(rj) > 0 {
		if m.Report, err = st.Put(rj); err != nil {
			sess.svc.tel.Counter("daemon.store_errors").Inc()
			return
		}
	}
	if len(td) > 0 {
		if m.Trace, err = st.Put(td); err != nil {
			sess.svc.tel.Counter("daemon.store_errors").Inc()
			return
		}
	}
	if err := st.PutManifest(m); err != nil {
		sess.svc.tel.Counter("daemon.store_errors").Inc()
		return
	}

	sess.mu.Lock()
	sess.manifest = m
	// Evict: the serialized bytes (and the report they render from) now
	// live in the store; the profiler — and with it the value-flow graph
	// — is dropped too, so finished sessions hold no engine state.
	sess.report = nil
	sess.reportJSON = nil
	sess.traceData = nil
	sess.prof = nil
	sess.mu.Unlock()
	sess.svc.tel.Counter("daemon.sessions_spilled").Inc()
}

// ID returns the service-assigned session identifier.
func (sess *Session) ID() string { return sess.id }

// Program returns the application name the session was attached with.
func (sess *Session) Program() string { return sess.program }

// State returns the session's current lifecycle state.
func (sess *Session) State() State {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.state
}

// Done returns a channel closed when the session has finalized.
func (sess *Session) Done() <-chan struct{} { return sess.done }

// Cancel requests the session's runtime stop: pending API calls fail at
// the boundary and a kernel in flight aborts at its next cancel check.
// A still-queued session is popped from the admission queue and its
// stream force-started against the canceled runtime, so it finalizes
// (canceled, with a report) without waiting for a slot. Non-blocking
// and safe at any time (the cancel flag is the one piece of runtime
// state another goroutine may touch). No-op on restored sessions.
func (sess *Session) Cancel() {
	if sess.rt == nil {
		return
	}
	sess.rt.Cancel()
	sess.svc.forceStart(sess)
}

// Drain waits for the session to finalize — without canceling it — and
// returns the cached terminal error. On an already-finalized session
// (degraded or not) it returns that cached typed error immediately; the
// pipeline was drained exactly once, at finalization, and is never
// walked again.
func (sess *Session) Drain() error {
	<-sess.done
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.runErr
}

// Close cancels the session (first call only) and waits for it to
// finalize, returning the cached terminal error. Repeated Close — like
// repeated Drain — returns the same cached error without re-walking the
// pipeline.
func (sess *Session) Close() error {
	sess.mu.Lock()
	first := !sess.closing && (sess.state == StateRunning || sess.state == StateQueued)
	sess.closing = true
	sess.mu.Unlock()
	if first {
		sess.Cancel()
	}
	return sess.Drain()
}

// Report returns the finalized report, or (nil, false) while the stream
// handler still owns the profiler. After the session spilled to the
// persistent store (or on a restored session), the report is parsed
// back from the stored bytes.
func (sess *Session) Report() (*profile.Report, bool) {
	sess.mu.Lock()
	rep := sess.report
	sess.mu.Unlock()
	if rep != nil {
		return rep, true
	}
	raw, ok := sess.ReportJSON()
	if !ok {
		return nil, false
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		sess.svc.tel.Counter("daemon.store_errors").Inc()
		return nil, false
	}
	return rep, true
}

// ReportJSON returns the serialized report bytes cached at finalization
// — exactly what Report.WriteJSON produced, so a session's report served
// over HTTP is byte-identical to the one-shot artifact for the same
// workload and configuration. After eviction the bytes load from the
// persistent store; content addressing guarantees they are the exact
// finalized bytes, across restarts included.
func (sess *Session) ReportJSON() ([]byte, bool) {
	sess.mu.Lock()
	raw, m := sess.reportJSON, sess.manifest
	sess.mu.Unlock()
	if raw != nil {
		return raw, true
	}
	if m != nil && m.Report != "" {
		data, err := sess.svc.store.Get(m.Report)
		if err != nil {
			sess.svc.tel.Counter("daemon.store_errors").Inc()
			return nil, false
		}
		return data, true
	}
	return nil, false
}

// TraceData returns the serialized trace container cached at
// finalization, or (nil, false) while the session is still running or
// when it was attached without Trace. The bytes replay through
// trace.NewSource into a report identical to the session's own. Like
// the report, an evicted trace loads from the persistent store.
func (sess *Session) TraceData() ([]byte, bool) {
	sess.mu.Lock()
	raw, m := sess.traceData, sess.manifest
	sess.mu.Unlock()
	if raw != nil {
		return raw, true
	}
	if m != nil && m.Trace != "" {
		data, err := sess.svc.store.Get(m.Trace)
		if err != nil {
			sess.svc.tel.Counter("daemon.store_errors").Inc()
			return nil, false
		}
		return data, true
	}
	return nil, false
}

// Graph returns the session's value flow graph once finalized, nil while
// running.
func (sess *Session) Graph() *vflow.Graph {
	sess.mu.Lock()
	p := sess.prof
	sess.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Graph()
}

// Metrics exports the session's telemetry recorder. Restored sessions
// (which never ran in this process) export empty metrics.
func (sess *Session) Metrics() telemetry.Metrics { return sess.tel.Metrics() }

// Info is a session's listing entry.
type Info struct {
	ID      string `json:"id"`
	Program string `json:"program"`
	Device  string `json:"device"`
	State   State  `json:"state"`
	// Queue is the session's 1-based position in the admission queue
	// while StateQueued; 0 (omitted) otherwise.
	Queue int `json:"queue,omitempty"`
	// Degraded mirrors the report's Degraded section: collection lost
	// something (canceled mid-kernel, injected faults, dropped buffers).
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Restored marks a session loaded from the persistent store at
	// startup: finalized in a previous daemon process, artifacts served
	// from disk.
	Restored bool `json:"restored,omitempty"`
}

// Info snapshots the session for listings. The queue position is read
// before the session lock so the two mutexes never nest.
func (sess *Session) Info() Info {
	pos := sess.svc.queuePos(sess)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	info := Info{
		ID: sess.id, Program: sess.program, Device: sess.device,
		State: sess.state, Restored: sess.restored,
	}
	if sess.state == StateQueued {
		info.Queue = pos
	}
	if sess.report != nil && sess.report.Degraded != nil {
		info.Degraded = true
	}
	if sess.runErr != nil {
		info.Error = sess.runErr.Error()
	}
	if sess.manifest != nil {
		info.Degraded = sess.manifest.Degraded
		if info.Error == "" {
			info.Error = sess.manifest.Error
		}
	}
	return info
}
