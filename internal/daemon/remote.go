// Remote attach: profile a program running in another process. The
// client dials the daemon's attach socket, sends one JSON handshake
// line, then streams its runtime's recorded event stream over the
// connection using the binary trace frame encoding; the daemon replays
// that stream into a normal session (trace.NewSourceOn), so the
// session's profiler observes exactly what a local run would have
// produced and the report is byte-identical to an in-process profile of
// the same program.
//
// Wire protocol, in order, on one connection:
//
//  1. client → daemon: AttachRequest (one JSON object) — program name,
//     optional device and engine options (the canonical option schema).
//  2. daemon → client: attach reply (one JSON object) — either
//     {"session": {...Info...}} on admission (possibly queued: the Info
//     carries the queue position) or {"error": {code,message,field}},
//     the same envelope the HTTP API speaks.
//  3. client → daemon: the VXTR binary trace stream, ending with the
//     container's end chunk. While the session is queued the daemon
//     does not read, so the socket buffer is the backpressure.
//  4. daemon → client: completion (one JSON object) — the final session
//     Info plus the serialized report.
//
// A client that disconnects mid-stream surfaces as a *trace.FormatError
// (the container ends without its end chunk); the session finalizes
// Failed with the partial report — the same degradation contract as
// fault injection.
package daemon

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// AttachRequest is the remote-attach handshake: which program the
// stream represents and how to analyze it. Options is the canonical
// option schema (cliconfig.Options JSON names — the same object POST
// /v1/sessions accepts); absent fields inherit the daemon's defaults.
// Scale is ignored: the problem size belongs to the client process,
// which executes the program.
type AttachRequest struct {
	// Program names the streamed application in reports and listings.
	Program string `json:"program"`
	// Device names the device profile the stream was recorded against;
	// "" uses the daemon default.
	Device string `json:"device"`
	// Trace additionally keeps the streamed container server-side,
	// served by GET /v1/sessions/{id}/trace.
	Trace   bool            `json:"trace"`
	Options json.RawMessage `json:"options"`
}

// attachReply is the daemon's handshake response.
type attachReply struct {
	Session *Info     `json:"session,omitempty"`
	Error   *APIError `json:"error,omitempty"`
}

// Completion is the daemon's final message on an attach connection: the
// finalized session and its serialized report (the exact bytes GET
// /v1/sessions/{id}/report serves).
type Completion struct {
	Session Info            `json:"session"`
	Report  json.RawMessage `json:"report,omitempty"`
}

// AttachServer accepts remote-attach connections on a listener and
// turns each into a service session. Close unblocks every open
// connection, so it must be closed before Service.Shutdown.
type AttachServer struct {
	svc *Service
	hc  HandlerConfig
	ln  net.Listener

	closeCh chan struct{}
	wg      sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServeAttach starts accepting remote-attach connections on ln,
// admitting each stream as a session under hc's defaults (the same
// defaults the HTTP surface applies).
func (s *Service) ServeAttach(ln net.Listener, hc HandlerConfig) *AttachServer {
	as := &AttachServer{
		svc: s, hc: hc, ln: ln,
		closeCh: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	as.wg.Add(1)
	go as.acceptLoop()
	return as
}

// Addr returns the listener's address.
func (as *AttachServer) Addr() net.Addr { return as.ln.Addr() }

// Close stops accepting, closes every open attach connection (a
// half-streamed session fails with a truncated-trace error and still
// finalizes), and waits for the connection handlers to exit.
func (as *AttachServer) Close() error {
	as.mu.Lock()
	if as.closed {
		as.mu.Unlock()
		as.wg.Wait()
		return nil
	}
	as.closed = true
	err := as.ln.Close()
	conns := make([]net.Conn, 0, len(as.conns))
	for c := range as.conns {
		conns = append(conns, c)
	}
	as.mu.Unlock()
	close(as.closeCh)
	for _, c := range conns {
		c.Close()
	}
	as.wg.Wait()
	return err
}

// track registers conn for Close; false means the server is already
// closing and the conn was refused.
func (as *AttachServer) track(conn net.Conn) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.closed {
		return false
	}
	as.conns[conn] = struct{}{}
	return true
}

func (as *AttachServer) untrack(conn net.Conn) {
	as.mu.Lock()
	delete(as.conns, conn)
	as.mu.Unlock()
}

func (as *AttachServer) acceptLoop() {
	defer as.wg.Done()
	for {
		conn, err := as.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !as.track(conn) {
			conn.Close()
			return
		}
		as.wg.Add(1)
		go as.handle(conn)
	}
}

// handle runs one attach connection end to end: handshake, admission,
// stream replay (inside the session's stream goroutine), completion.
func (as *AttachServer) handle(conn net.Conn) {
	defer as.wg.Done()
	defer as.untrack(conn)
	defer conn.Close()
	enc := json.NewEncoder(conn)

	dec := json.NewDecoder(conn)
	var req AttachRequest
	if err := dec.Decode(&req); err != nil {
		enc.Encode(attachReply{Error: apiError(err, CodeInvalidRequest)})
		return
	}
	if req.Program == "" {
		enc.Encode(attachReply{Error: &APIError{
			Code: CodeInvalidRequest, Message: "program is required",
		}})
		return
	}
	device := req.Device
	if device == "" {
		device = as.hc.Device
	}
	prof, err := gpu.ProfileByName(device)
	if err != nil {
		enc.Encode(attachReply{Error: apiError(err, CodeUnknownDevice)})
		return
	}
	// Faults arm the runtime that executes the program, which for a
	// remote stream is the client's: the daemon cannot inject them, so
	// its default spec does not apply and a handshake naming one is
	// rejected rather than silently profiled clean.
	defaults := as.hc.Defaults
	defaults.Faults = ""
	opts, ae := decodeOptions(defaults, req.Options)
	if ae == nil && opts.Faults != "" {
		ae = &APIError{Code: CodeInvalidOption, Field: "faults",
			Message: "-faults cannot apply to a remote-attach stream: the program runs in the client process"}
	}
	if ae != nil {
		enc.Encode(attachReply{Error: ae})
		return
	}
	// Scale sizes the *client's* program; the daemon neither runs the
	// workload nor can honor a different scale, so the handshake value is
	// discarded before validation.
	opts.Scale = as.hc.Defaults.Scale
	if opts.Scale < 1 {
		opts.Scale = workloads.Scale
	}
	if err := opts.Validate(); err != nil {
		enc.Encode(attachReply{Error: apiError(err, CodeInvalidOption)})
		return
	}
	cfg, err := opts.EngineConfig(req.Program)
	if err != nil {
		enc.Encode(attachReply{Error: apiError(err, CodeInvalidOption)})
		return
	}

	// Everything the decoder over-read during the handshake belongs to
	// the trace stream that follows.
	stream := io.MultiReader(dec.Buffered(), conn)
	sess, err := as.svc.Attach(SessionConfig{
		Program: req.Program,
		Device:  prof,
		Engine:  cfg,
		Trace:   req.Trace,
		Source: func(rt *cuda.Runtime) cuda.EventSource {
			return trace.NewSourceOn(stream, rt)
		},
	})
	if err != nil {
		enc.Encode(attachReply{Error: apiError(err, CodeInternal)})
		return
	}
	as.svc.tel.Counter("daemon.remote_attaches").Inc()
	info := sess.Info()
	if err := enc.Encode(attachReply{Session: &info}); err != nil {
		sess.Cancel()
	}

	select {
	case <-sess.Done():
	case <-as.closeCh:
		// Server closing: the conn is (being) closed, the session will
		// fail its read and finalize under Service.Shutdown; nobody is
		// left to read a completion.
		return
	}
	var fe *trace.FormatError
	if errors.As(sess.Drain(), &fe) {
		as.svc.tel.Counter("daemon.remote_disconnects").Inc()
	}
	comp := Completion{Session: sess.Info()}
	if raw, ok := sess.ReportJSON(); ok {
		comp.Report = raw
	}
	enc.Encode(comp)
}

// RemoteSession is the client half of remote attach: a handle on a
// daemon session fed by this process's own runtime.
type RemoteSession struct {
	conn net.Conn
	dec  *json.Decoder
	info Info
}

// DialAttach connects to a daemon's attach socket and performs the
// handshake. A daemon-side rejection is returned as the *APIError the
// daemon sent (quota rejections carry CodeQuotaExceeded).
func DialAttach(network, addr string, req AttachRequest) (*RemoteSession, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		conn.Close()
		return nil, err
	}
	dec := json.NewDecoder(conn)
	var reply attachReply
	if err := dec.Decode(&reply); err != nil {
		conn.Close()
		return nil, err
	}
	if reply.Error != nil {
		conn.Close()
		return nil, reply.Error
	}
	return &RemoteSession{conn: conn, dec: dec, info: *reply.Session}, nil
}

// Info returns the admission-time session info (the state may be
// StateQueued with a queue position).
func (rs *RemoteSession) Info() Info { return rs.info }

// Run executes the program locally on a fresh runtime simulating prof,
// streaming the recorded event stream to the daemon as it happens, and
// finishes the container (the end chunk tells the daemon the stream is
// complete). The daemon applies no sampling and sees every event — the
// capture-once-analyze-often recording contract.
func (rs *RemoteSession) Run(prof gpu.Profile, run func(rt *cuda.Runtime) error) error {
	rt := cuda.NewRuntime(prof)
	rec := trace.Record(rt, rs.conn, trace.FormatBinary)
	runErr := run(rt)
	if cerr := rec.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	// Half-close where the transport supports it, so the daemon's reader
	// cannot outwait a client that has nothing more to send.
	if hc, ok := rs.conn.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	return runErr
}

// Wait blocks for the daemon's completion message and returns the final
// session info and the serialized report bytes — byte-identical to what
// GET /v1/sessions/{id}/report serves for this session.
func (rs *RemoteSession) Wait() (Info, []byte, error) {
	var comp Completion
	if err := rs.dec.Decode(&comp); err != nil {
		return Info{}, nil, err
	}
	return comp.Session, comp.Report, nil
}

// Close closes the attach connection. Closing before the stream's end
// chunk was sent fails the daemon-side session with a truncated-trace
// error (it still finalizes, Degraded-style, with a partial report).
func (rs *RemoteSession) Close() error { return rs.conn.Close() }
