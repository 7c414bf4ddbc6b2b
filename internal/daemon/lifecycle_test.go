package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
)

// newTestService opens a service with a store in a fresh directory, or
// an in-memory one.
func newTestService(t *testing.T, withStore bool, opts ...Option) *Service {
	t.Helper()
	if withStore {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithStore(st))
	}
	return NewService(opts...)
}

// forEachStoreMode runs f once with a persistent store and once without.
func forEachStoreMode(t *testing.T, f func(t *testing.T, withStore bool)) {
	for _, withStore := range []bool{true, false} {
		name := "memory"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) { f(t, withStore) })
	}
}

// TestFinishedSessionReleasesEngine: once a session finalized, its
// runtime (and the simulated device memory behind it) and its profiler
// are garbage, while the session still serves its report.
func TestFinishedSessionReleasesEngine(t *testing.T) {
	t.Parallel()
	forEachStoreMode(t, func(t *testing.T, withStore bool) {
		svc := newTestService(t, withStore)
		defer svc.Shutdown()
		started, release := make(chan struct{}), make(chan struct{})
		sess, err := svc.Attach(SessionConfig{
			Program: "rnd-21", Device: gpu.RTX2080Ti, Engine: engineCfg(),
			Run: func(rt *cuda.Runtime) error {
				close(started)
				<-release
				return randomRun(21)(rt)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		var rtFreed, profFreed atomic.Bool
		func() {
			// The run function executes after the snapshotter is in place,
			// so both engine pointers are reachable here.
			sess.mu.Lock()
			rt, prof := sess.rt, sess.snap.prof
			sess.mu.Unlock()
			runtime.SetFinalizer(rt, func(*cuda.Runtime) { rtFreed.Store(true) })
			runtime.SetFinalizer(prof, func(*core.Profiler) { profFreed.Store(true) })
		}()
		close(release)
		<-sess.Done()

		deadline := time.Now().Add(5 * time.Second)
		for !rtFreed.Load() || !profFreed.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("engine retained after Done: runtime freed %v, profiler freed %v",
					rtFreed.Load(), profFreed.Load())
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if _, ok := sess.ReportJSON(); !ok {
			t.Fatal("finished session lost its report")
		}
		if sess.State() != StateDone {
			t.Fatalf("state = %s, want done", sess.State())
		}
	})
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapPerSession: after a warm-up, serving many sessions
// grows the live heap by at most a few kilobytes per finished session —
// the session's manifest and summary with a store, its report, bytes and
// graph without one. It stays serial: the live heap is process-wide.
func TestRetainedHeapPerSession(t *testing.T) {
	const (
		warmup   = 20
		sessions = 300
	)
	budget := map[bool]uint64{true: 16 << 10, false: 64 << 10}
	forEachStoreMode(t, func(t *testing.T, withStore bool) {
		svc := newTestService(t, withStore)
		defer svc.Shutdown()
		serve := func(i int) {
			sess, err := svc.Attach(SessionConfig{
				Program: fmt.Sprintf("rnd-%d", i%16), Device: gpu.RTX2080Ti,
				Engine: engineCfg(), Run: randomRun(int64(i % 16)),
			})
			if err != nil {
				t.Fatal(err)
			}
			<-sess.Done()
		}
		for i := 0; i < warmup; i++ {
			serve(i)
		}
		before := liveHeap()
		for i := warmup; i < warmup+sessions; i++ {
			serve(i)
		}
		after := liveHeap()
		var per uint64
		if after > before {
			per = (after - before) / sessions
		}
		t.Logf("retained %.1f KB per finished session (heap %.1f → %.1f MB)",
			float64(per)/1024, float64(before)/(1<<20), float64(after)/(1<<20))
		if per > budget[withStore] {
			t.Fatalf("retained %d B per finished session, budget %d B", per, budget[withStore])
		}
		// These sessions emit more events than the self-trace ring holds;
		// the metrics say how many it overwrote.
		if d := svc.Metrics()["service"].Counters["telemetry.dropped_events"]; d == 0 || d != svc.Trace().Dropped() {
			t.Fatalf("telemetry.dropped_events = %d, ring dropped %d", d, svc.Trace().Dropped())
		}
	})
}

// TestCancelShutdownRaceFinalize: Cancel, Shutdown and the read paths
// race the finalization of running and queued sessions — the engine
// release must be safe against all of them (run under -race). Every
// session still finalizes exactly once with a report, and a
// ?partial=1 request on a finished session serves the final bytes,
// not marked partial.
func TestCancelShutdownRaceFinalize(t *testing.T) {
	t.Parallel()
	forEachStoreMode(t, func(t *testing.T, withStore bool) {
		svc := newTestService(t, withStore, WithLimits(Limits{MaxRunning: 2, MaxQueued: 8}))
		var sessions []*Session
		for i := 0; i < 8; i++ {
			sess, err := svc.Attach(SessionConfig{
				Program: fmt.Sprintf("rnd-%d", i), Device: gpu.RTX2080Ti,
				Engine: engineCfg(), Run: randomRun(int64(i)),
			})
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, sess)
		}
		// Per session: a reader over the serving paths until it finalizes,
		// and for every other session a canceler that keeps calling Cancel
		// through its finalization.
		var wg sync.WaitGroup
		until := func(sess *Session, f func()) {
			defer wg.Done()
			for {
				select {
				case <-sess.Done():
					f()
					return
				default:
				}
				f()
				runtime.Gosched()
			}
		}
		stop := make(chan struct{})
		close(stop)
		for i, sess := range sessions {
			wg.Add(1)
			go until(sess, func() {
				sess.Info()
				sess.Graph()
				sess.PartialReport(stop)
				svc.Aggregate()
			})
			if i%2 == 1 {
				wg.Add(1)
				go until(sess, sess.Cancel)
			}
		}
		// Shut down once one session finished, while others still run or
		// wait in the queue.
		<-sessions[0].Done()
		svc.Shutdown()
		wg.Wait()

		for _, sess := range sessions {
			select {
			case <-sess.Done():
			default:
				t.Fatalf("session %s not finalized after Shutdown", sess.ID())
			}
			raw, ok := sess.ReportJSON()
			if !ok {
				t.Fatalf("session %s (%s) has no report", sess.ID(), sess.State())
			}
			sess.mu.Lock()
			released := sess.rt == nil && sess.src == nil && sess.snap == nil
			sess.mu.Unlock()
			if !released {
				t.Fatalf("session %s still holds its engine after Done", sess.ID())
			}
			sess.Cancel() // a no-op on a finished session
			if got, partial := sess.PartialReport(nil); partial || !bytes.Equal(got, raw) {
				t.Fatalf("finished %s: PartialReport partial=%v, %d bytes, want the final %d",
					sess.ID(), partial, len(got), len(raw))
			}
			if n := waiters(sess); n != 0 {
				t.Fatalf("finished %s still holds %d partial-report waiters", sess.ID(), n)
			}
		}
		if withStore {
			// A spilled session whose stored report cannot be read answers
			// nothing, and the request leaves no waiter behind.
			sess := sessions[1]
			sess.mu.Lock()
			addr := sess.manifest.Report
			sess.mu.Unlock()
			if err := os.Remove(filepath.Join(svc.store.Dir(), "objects", addr)); err != nil {
				t.Fatal(err)
			}
			if got, partial := sess.PartialReport(nil); got != nil || partial {
				t.Fatalf("unreadable report: PartialReport = %d bytes, partial=%v", len(got), partial)
			}
			if n := waiters(sess); n != 0 {
				t.Fatalf("unreadable report: %d partial-report waiters left", n)
			}
		}

		srv := httptest.NewServer(svc.Handler(HandlerConfig{}))
		defer srv.Close()
		sess := sessions[0]
		resp, err := http.Get(srv.URL + "/v1/sessions/" + sess.ID() + "/report?partial=1")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		want, _ := sess.ReportJSON()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ValueExpert-Partial") != "" ||
			!bytes.Equal(body.Bytes(), want) {
			t.Fatalf("?partial=1 on finished session: %d, partial header %q, %d bytes (want %d)",
				resp.StatusCode, resp.Header.Get("ValueExpert-Partial"), body.Len(), len(want))
		}
	})
}

// waiters counts sess's registered partial-report waiters.
func waiters(sess *Session) int {
	sess.partialMu.Lock()
	defer sess.partialMu.Unlock()
	return len(sess.partialWaiters)
}

// TestRestoredAggregateMatchesOneShot: after a restart the aggregate
// folds the restored sessions' summaries (reduced once from the stored
// reports) to exactly the bytes of Fold over the one-shot reports.
func TestRestoredAggregateMatchesOneShot(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 2, 3, 4}
	var want []*profile.Report
	for _, seed := range seeds {
		want = append(want, oneShot(t, seed))
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithStore(st))
	var ids []string
	for _, seed := range seeds {
		sess, err := svc.Attach(SessionConfig{
			Program: fmt.Sprintf("rnd-%d", seed), Device: gpu.RTX2080Ti,
			Engine: engineCfg(), Run: randomRun(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		<-sess.Done()
		ids = append(ids, sess.ID())
	}
	svc.Shutdown()
	wantJSON, err := json.Marshal(Fold(ids, want))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(svc.Aggregate())
	if !bytes.Equal(before, wantJSON) {
		t.Fatalf("aggregate before restart:\n got %s\nwant %s", before, wantJSON)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithStore(st2))
	defer svc2.Shutdown()
	for i := 0; i < 2; i++ { // the second fold reuses the cached summaries
		got, err := json.Marshal(svc2.Aggregate())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("restored aggregate (fold %d):\n got %s\nwant %s", i+1, got, wantJSON)
		}
	}
	for _, id := range ids {
		sess := svc2.Session(id)
		sess.mu.Lock()
		cached := sess.sum != nil
		sess.mu.Unlock()
		if !cached {
			t.Fatalf("restored session %s did not keep its summary", id)
		}
	}
}
