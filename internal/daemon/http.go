// The service's versioned HTTP surface: JSON/text/GUI report endpoints
// over the session registry, all under the /v1 prefix. Go 1.22
// method+wildcard mux patterns route it all:
//
//	GET    /v1/healthz              liveness + session/queue occupancy
//	GET    /v1/sessions             session listing (queued + restored included)
//	POST   /v1/sessions             attach a bundled workload as a session
//	GET    /v1/sessions/{id}        one session's info (incl. queue position)
//	GET    /v1/sessions/{id}/report report: ?format=json|text|html, ?wait=1,
//	                                ?partial=1 for a mid-run snapshot
//	GET    /v1/sessions/{id}/trace  recorded trace container, ?wait=1
//	DELETE /v1/sessions/{id}        cancel + finalize a session
//	GET    /v1/aggregate            process-level aggregate over sessions
//	GET    /v1/metrics              service + per-session telemetry metrics
//	GET    /v1/selftrace            shared Perfetto self-trace (all sessions)
//
// Only /healthz also answers unversioned (load-balancer probes); every
// other bare path is 404.
//
// Errors share one typed envelope — {"error": {code, message, field}} —
// with the stable codes defined in errors.go; admission rejections are
// 429 with code "quota_exceeded", and a queued admission answers 202
// with the queue position in the session info.
//
// The JSON report endpoint serves the byte-for-byte cached
// Report.WriteJSON output, so `curl …/report > daemon.json` diffs clean
// against the equivalent one-shot `vxprof -json` artifact — across
// daemon restarts too, once a persistent store is attached.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/gui"
	"valueexpert/internal/workloads"
)

// HandlerConfig shapes the HTTP surface.
type HandlerConfig struct {
	// Defaults seeds each POSTed session's engine options; a request's
	// "options" object overrides individual fields (JSON-merge
	// semantics, canonical option names = flag names).
	Defaults cliconfig.Options
	// Device is the device profile name sessions run on when the request
	// names none.
	Device string
}

// Handler builds the service's HTTP handler: the /v1 API plus the
// unversioned /healthz.
func (s *Service) Handler(hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		running, queued := s.running, len(s.queue)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "sessions": len(s.Sessions()),
			"running": running, "queued": queued,
		})
	}
	mux.HandleFunc("GET /v1/healthz", healthz)
	// Unversioned liveness for load-balancer probes.
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		infos := []Info{}
		for _, sess := range s.Sessions() {
			infos = append(infos, sess.Info())
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.createSession(w, r, hc)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			writeJSON(w, http.StatusOK, sess.Info())
		}
	})
	mux.HandleFunc("GET /v1/sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			s.serveReport(w, r, sess)
		}
	})
	mux.HandleFunc("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		if sess := s.session(w, r); sess != nil {
			s.serveTrace(w, r, sess)
		}
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess := s.session(w, r)
		if sess == nil {
			return
		}
		sess.Close()
		writeJSON(w, http.StatusOK, sess.Info())
	})
	mux.HandleFunc("GET /v1/aggregate", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Aggregate())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /v1/selftrace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.trace.WriteJSON(w)
	})
	return mux
}

// createRequest is the POST /v1/sessions body. Options is the canonical
// option schema (cliconfig.Options JSON names = flag names), so a
// request's validation errors speak the same names vxprof prints and
// the error envelope's "field" points straight back at the input.
type createRequest struct {
	Workload  string `json:"workload"`
	Device    string `json:"device"`
	Optimized bool   `json:"optimized"`
	// Trace additionally records the session's event stream; the
	// container is served by GET /v1/sessions/{id}/trace after the
	// session finalizes.
	Trace   bool            `json:"trace"`
	Options json.RawMessage `json:"options"`
}

func (s *Service) createSession(w http.ResponseWriter, r *http.Request, hc HandlerConfig) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, &APIError{
			Code: CodeInvalidRequest, Message: fmt.Sprintf("invalid request body: %v", err),
		})
		return
	}
	if req.Workload == "" {
		writeAPIError(w, &APIError{
			Code: CodeInvalidRequest, Message: "workload is required", Field: "workload",
		})
		return
	}
	// The workload binds at the session's scale, so options decode
	// first; an unknown workload still outranks an option error.
	opts, optErr := decodeOptions(hc.Defaults, req.Options)
	wl, err := workloads.Lookup(req.Workload, opts.Scale)
	if err != nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownWorkload, Message: err.Error(), Field: "workload",
		})
		return
	}
	device := req.Device
	if device == "" {
		device = hc.Device
	}
	prof, err := gpu.ProfileByName(device)
	if err != nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownDevice, Message: err.Error(), Field: "device",
		})
		return
	}

	if optErr != nil {
		writeAPIError(w, optErr)
		return
	}
	if err := opts.Validate(); err != nil {
		writeAPIError(w, apiError(err, CodeInvalidOption))
		return
	}
	cfg, err := opts.EngineConfig(wl.Name())
	if err != nil {
		writeAPIError(w, apiError(err, CodeInvalidOption))
		return
	}
	plan, err := opts.FaultPlan()
	if err != nil {
		writeAPIError(w, apiError(err, CodeInvalidOption))
		return
	}
	variant := workloads.Original
	if req.Optimized {
		variant = workloads.Optimized
	}
	sess, err := s.Attach(SessionConfig{
		Program: wl.Name(),
		Device:  prof,
		Engine:  cfg,
		Faults:  plan,
		Trace:   req.Trace,
		Run: func(rt *cuda.Runtime) error {
			return wl.Run(rt, variant)
		},
	})
	if err != nil {
		writeAPIError(w, apiError(err, CodeInvalidRequest))
		return
	}
	info := sess.Info()
	// A queued admission is accepted-but-pending: 202, with the queue
	// position in the body so the client can gauge the wait.
	status := http.StatusCreated
	if info.State == StateQueued {
		status = http.StatusAccepted
	}
	writeJSON(w, status, info)
}

// decodeOptions merges a request's "options" object over defaults, for
// both POST /v1/sessions and the attach handshake. A key outside the
// canonical schema is an invalid_option naming that key, never silently
// dropped; keys match case-insensitively, as encoding/json always does.
func decodeOptions(defaults cliconfig.Options, raw json.RawMessage) (cliconfig.Options, *APIError) {
	opts := defaults
	if len(raw) == 0 {
		return opts, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&opts)
	if err == nil {
		return opts, nil
	}
	// encoding/json has no typed error for an unknown key; its message
	// is "json: unknown field " + strconv.Quote(key), so Unquote cannot
	// fail.
	if key, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		key, _ = strconv.Unquote(key)
		return opts, &APIError{Code: CodeInvalidOption, Field: key, Message: fmt.Sprintf("unknown option %q", key)}
	}
	return opts, &APIError{Code: CodeInvalidRequest, Field: "options", Message: fmt.Sprintf("invalid options: %v", err)}
}

// serveReport emits one session's report. JSON (the default) serves the
// cached serialized bytes untouched; text and html render from the
// cached report. A running session 409s unless ?wait=1 blocks until it
// finalizes or ?partial=1 snapshots the aggregate mid-run (JSON only;
// the response carries ValueExpert-Partial: true while the session is
// still running).
func (s *Service) serveReport(w http.ResponseWriter, r *http.Request, sess *Session) {
	format := r.URL.Query().Get("format")
	if r.URL.Query().Get("partial") == "1" {
		if format != "" && format != "json" {
			writeAPIError(w, &APIError{
				Code:    CodeInvalidRequest,
				Message: "?partial=1 serves JSON only (the partial snapshot is the serialized aggregate)",
			})
			return
		}
		raw, partial := sess.PartialReport(r.Context().Done())
		if raw == nil {
			writeAPIError(w, &APIError{
				Code: CodeInternal, Message: "partial report canceled",
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if partial {
			w.Header().Set("ValueExpert-Partial", "true")
		}
		w.Write(raw)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		<-sess.Done()
	}
	rep, ok := sess.Report()
	if !ok {
		writeAPIError(w, &APIError{
			Code:    CodeSessionRunning,
			Message: fmt.Sprintf("session %s is still running (retry with ?wait=1, or ?partial=1 for a snapshot)", sess.ID()),
		})
		return
	}
	switch format {
	case "", "json":
		raw, _ := sess.ReportJSON()
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Text())
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, gui.RenderHTML(rep, sess.Graph(), gui.Options{}))
	default:
		writeAPIError(w, &APIError{
			Code:    CodeInvalidRequest,
			Message: fmt.Sprintf("unknown format %q (want json, text, or html)", format),
			Field:   "format",
		})
	}
}

// serveTrace emits the session's recorded trace container as raw bytes.
// A running session 409s unless ?wait=1 blocks; a session attached
// without tracing 404s.
func (s *Service) serveTrace(w http.ResponseWriter, r *http.Request, sess *Session) {
	if r.URL.Query().Get("wait") == "1" {
		<-sess.Done()
	}
	switch sess.State() {
	case StateRunning, StateQueued:
		writeAPIError(w, &APIError{
			Code:    CodeSessionRunning,
			Message: fmt.Sprintf("session %s is still running (retry with ?wait=1)", sess.ID()),
		})
		return
	}
	data, ok := sess.TraceData()
	if !ok {
		writeAPIError(w, &APIError{
			Code:    CodeNoTrace,
			Message: fmt.Sprintf("session %s was not attached with tracing enabled", sess.ID()),
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// session resolves the {id} path value, writing a 404 when unknown.
func (s *Service) session(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess := s.Session(id)
	if sess == nil {
		writeAPIError(w, &APIError{
			Code: CodeUnknownSession, Message: fmt.Sprintf("no session %q", id),
		})
	}
	return sess
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAPIError emits the typed error envelope, with the HTTP status
// derived from the stable code.
func writeAPIError(w http.ResponseWriter, ae *APIError) {
	writeJSON(w, httpStatus(ae.Code), errorEnvelope{Error: ae})
}
