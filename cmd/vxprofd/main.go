// Command vxprofd hosts ValueExpert as a multi-tenant profiling service:
// where vxprof profiles one workload per invocation, vxprofd attaches any
// number of workloads concurrently — each a long-lived session with its
// own event-stream handler — and serves their reports, a process-level
// aggregate, and live self-observability over a versioned HTTP API.
//
// Usage:
//
//	vxprofd [-addr :7333] [-device "RTX 2080 Ti"] [-coarse] [-fine]
//	        [-sample 20] [-patterns "single zero"]
//	        [-scale 8] [-faults malloc@2]
//	        [-max-running 8] [-queue 16] [-store /var/lib/vxprofd]
//	        [-attach /run/vxprofd.sock]
//
// The engine flags are the shared vxprof surface, -scale included; they
// seed each POSTed session's defaults, overridable per session through
// the request's "options" object. The fleet flags:
//
//	-max-running  cap on concurrently running streams (0 = unlimited);
//	              admissions past the cap queue FIFO, up to -queue deep,
//	              then 429 with code "quota_exceeded"
//	-store        persistent report store directory: finished sessions
//	              spill report + trace there (content-addressed) and are
//	              served across restarts
//	-attach       Unix socket for remote attach: vxprof -remote <socket>
//	              streams another process's events into a session here
//
// Endpoints (see DESIGN.md §11; of the bare paths only /healthz answers):
//
//	POST   /v1/sessions              {"workload": "Darknet", "options": {"sample": 20}}
//	GET    /v1/sessions              list attached sessions
//	GET    /v1/sessions/{id}/report  ?format=json|text|html, ?wait=1, ?partial=1
//	DELETE /v1/sessions/{id}         cancel + finalize a session
//	GET    /v1/aggregate             deterministic fold over finished sessions
//	GET    /v1/metrics               service + per-session engine metrics
//	GET    /v1/selftrace             Perfetto trace, one process per session
//
// SIGTERM/SIGINT drains gracefully: no new sessions, remote-attach
// connections close, every running session's runtime is canceled — a
// kernel mid-execution aborts through the engine's degradation path and
// still yields a report, marked Degraded — and the server exits once
// all sessions finalized.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"valueexpert/internal/cliconfig"
	"valueexpert/internal/daemon"
)

func main() {
	opts := &cliconfig.Options{}
	opts.Register(flag.CommandLine)
	var (
		addr       = flag.String("addr", ":7333", "HTTP listen address")
		device     = flag.String("device", "RTX 2080 Ti", "default device profile: 'RTX 2080 Ti' or 'A100'")
		maxRunning = flag.Int("max-running", 0, "cap on concurrently running session streams (0 = unlimited)")
		queueBound = flag.Int("queue", 16, "FIFO admission queue bound once -max-running is reached")
		storeDir   = flag.String("store", "", "persistent report store directory ('' = in-memory only)")
		attachSock = flag.String("attach", "", "Unix socket path for remote attach ('' = disabled)")
	)
	flag.Parse()

	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "vxprofd:", err)
		os.Exit(2)
	}
	var svcOpts []daemon.Option
	if *maxRunning > 0 {
		svcOpts = append(svcOpts, daemon.WithLimits(daemon.Limits{
			MaxRunning: *maxRunning, MaxQueued: *queueBound,
		}))
	}
	if *storeDir != "" {
		st, err := daemon.OpenStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vxprofd:", err)
			os.Exit(1)
		}
		svcOpts = append(svcOpts, daemon.WithStore(st))
	}
	svc := daemon.NewService(svcOpts...)
	hc := daemon.HandlerConfig{Defaults: *opts, Device: *device}
	srv := &http.Server{Addr: *addr, Handler: svc.Handler(hc)}

	var attach *daemon.AttachServer
	if *attachSock != "" {
		os.Remove(*attachSock) // a stale socket from a previous run
		ln, err := net.Listen("unix", *attachSock)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vxprofd:", err)
			os.Exit(1)
		}
		attach = svc.ServeAttach(ln, hc)
		fmt.Fprintf(os.Stderr, "vxprofd: remote attach on %s\n", *attachSock)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		fmt.Fprintf(os.Stderr, "vxprofd: %s, draining sessions\n", sig)
		// Close the attach socket first — its handlers block on session
		// completion, and a hung remote client must not outlive drain —
		// then the profiler: running kernels abort through the degradation
		// path and every session finalizes a report. HTTP stops last so
		// in-flight report fetches can complete.
		if attach != nil {
			attach.Close()
			os.Remove(*attachSock)
		}
		svc.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "vxprofd: serving on %s (device %q, scale %d)\n",
		*addr, *device, opts.Scale)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "vxprofd:", err)
		os.Exit(1)
	}
	<-done
}
