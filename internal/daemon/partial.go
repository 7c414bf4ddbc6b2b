// Streaming incremental reports: a long-running session serves a
// partial fold mid-run. The snapshotter is an interceptor link between
// the profiler (inner) and the trace recorder (outer); when a partial
// report is requested it sets a flag, and the *stream goroutine* builds
// the snapshot right after the next APIEnd has been forwarded — the one
// point where the pipeline holds no in-flight launch and every stage's
// Finish is a pure copy. The engine is never touched from the request
// goroutine, and the snapshot path allocates only read-only copies, so
// the final report stays byte-identical whether or not anyone peeked.
package daemon

import (
	"bytes"
	"sync/atomic"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
)

// snapshotter chains in front of the session's profiler, serving
// mid-run report snapshots between API events.
type snapshotter struct {
	inner cuda.Interceptor
	prof  *core.Profiler
	sess  *Session
	want  atomic.Bool
}

// APIBegin implements cuda.Interceptor.
func (sn *snapshotter) APIBegin(ev *cuda.APIEvent) {
	if sn.inner != nil {
		sn.inner.APIBegin(ev)
	}
}

// APIEnd implements cuda.Interceptor: after forwarding, a pending
// snapshot request is served on this (the stream) goroutine.
func (sn *snapshotter) APIEnd(ev *cuda.APIEvent) {
	if sn.inner != nil {
		sn.inner.APIEnd(ev)
	}
	if sn.want.Swap(false) {
		sn.publish()
	}
}

// Instrumentation implements cuda.Interceptor by pure forwarding.
func (sn *snapshotter) Instrumentation(kernelName string) (gpu.AccessFunc, func(int32) bool) {
	if sn.inner == nil {
		return nil, nil
	}
	return sn.inner.Instrumentation(kernelName)
}

// Drain implements cuda.Drainer by forwarding, so the profiler behind
// the snapshotter still quiesces when a kernel fails mid-execution.
func (sn *snapshotter) Drain() {
	if d, ok := sn.inner.(cuda.Drainer); ok {
		d.Drain()
	}
}

// publish serializes the profiler's current state and hands it to every
// waiting PartialReport call. Report() reads copies of finalized stage
// state only; with no launch in flight it observes a consistent prefix
// of the run.
func (sn *snapshotter) publish() {
	rep := sn.prof.Report()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return
	}
	sn.sess.deliverPartial(buf.Bytes())
	sn.sess.svc.tel.Counter("daemon.partial_reports").Inc()
}

// deliverPartial fans the snapshot out to the registered waiters.
func (sess *Session) deliverPartial(raw []byte) {
	sess.partialMu.Lock()
	ws := sess.partialWaiters
	sess.partialWaiters = nil
	sess.partialMu.Unlock()
	for _, ch := range ws {
		ch <- raw // buffered, never blocks
	}
}

// PartialReport returns a mid-run report snapshot for a running
// session. It registers a waiter, asks the stream goroutine for a
// snapshot at its next API-event boundary, and blocks until the
// snapshot arrives, the session finalizes (the final report is served
// instead, partial=false), or cancel fires (nil, false). On an
// already-finalized session it returns the final bytes immediately.
func (sess *Session) PartialReport(cancel <-chan struct{}) (raw []byte, partial bool) {
	if raw, ok := sess.ReportJSON(); ok {
		return raw, false
	}
	ch := make(chan []byte, 1)
	sess.partialMu.Lock()
	sess.partialWaiters = append(sess.partialWaiters, ch)
	sess.partialMu.Unlock()
	// Whichever way the call returns, its waiter leaves with it: one that
	// finalization or cancel outran would otherwise stay for good.
	defer sess.dropWaiter(ch)

	// A queued session has no snapshotter yet; its waiter simply rides
	// until finalization (or cancel).
	sess.mu.Lock()
	sn := sess.snap
	sess.mu.Unlock()
	if sn != nil {
		sn.want.Store(true)
	}

	select {
	case raw := <-ch:
		return raw, true
	case <-sess.done:
		raw, _ := sess.ReportJSON()
		return raw, false
	case <-cancel:
		return nil, false
	}
}

// dropWaiter unregisters ch if a snapshot delivery has not already
// taken it.
func (sess *Session) dropWaiter(ch chan []byte) {
	sess.partialMu.Lock()
	defer sess.partialMu.Unlock()
	for i, w := range sess.partialWaiters {
		if w == ch {
			sess.partialWaiters = append(sess.partialWaiters[:i], sess.partialWaiters[i+1:]...)
			return
		}
	}
}
