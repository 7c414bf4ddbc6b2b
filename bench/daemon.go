package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"valueexpert/gpu"
	"valueexpert/internal/daemon"
)

// The daemon workload's load: closed-loop clients, each sending its next
// session only after the previous report arrived. Each client's sessions
// come in blocks holding every app once, so every seed serves the same
// mix; free random draws moved sessions/s by 40% between seeds.
const (
	clients        = 2
	blocksPerRound = 2  // blocks of one session per app and client; a fresh daemon serves each round
	aggregateEvery = 12 // sessions per client between GET /v1/aggregate
	traceEvery     = 3  // one session in three records a trace
)

// limits admit one running session with two queued: with two clients,
// a client re-POSTing as soon as its report arrives can find the slot of
// its finished session not yet released, and a one-slot queue would
// turn that race into spurious 429s.
var limits = daemon.Limits{MaxRunning: 1, MaxQueued: 2}

// rig is one in-process vxprofd: a Service with a persistent store,
// served over loopback HTTP.
type rig struct {
	dir    string
	svc    *daemon.Service
	srv    *http.Server
	served chan struct{} // closed when Serve returned
	url    string
	client *http.Client
	heap0  float64      // MB in use once warmed up
	n      atomic.Int64 // sessions served since heap0
}

func (b *bench) openRig() (*rig, error) {
	b.rigs++
	dir := filepath.Join(b.p.workDir, fmt.Sprintf("store-%d", b.rigs))
	st, err := daemon.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc := daemon.NewService(daemon.WithStore(st), daemon.WithLimits(limits))
	r := &rig{
		dir: dir, svc: svc, served: make(chan struct{}),
		srv: &http.Server{Handler: svc.Handler(daemon.HandlerConfig{
			Defaults: cliDefaults(b.scale), Device: gpu.RTX2080Ti.Name,
		})},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		}},
	}
	go func() {
		defer close(r.served)
		r.srv.Serve(ln)
	}()
	return r, nil
}

// closeRig measures the heap the daemon holds, then stops it and deletes
// its store. It returns the heap in use in MB (0 for a nil rig).
func (b *bench) closeRig(r *rig) float64 {
	if r == nil {
		return 0
	}
	if r == b.rig {
		b.rig = nil
	}
	heap := b.heapNow()
	if n := r.n.Load(); n > 0 {
		b.heapPerSession = append(b.heapPerSession, (heap-r.heap0)/float64(n))
	}
	r.srv.Close()
	<-r.served
	r.client.CloseIdleConnections()
	r.svc.Shutdown()
	os.RemoveAll(r.dir)
	return heap
}

// daemonSetup starts a daemon and warms it up with one session of every
// app, each checked like any other.
func daemonSetup(b *bench) error {
	r, err := b.openRig()
	if err != nil {
		return err
	}
	b.rig = r
	for _, a := range b.apps {
		b.session(r, a, false, "setup.op", 0, -1)
	}
	r.heap0 = b.heapNow()
	r.n.Store(0)
	return nil
}

// daemonStep is one round: a freshly set-up daemon serves
// blocksPerRound blocks, the heap is measured before the daemon stops,
// and a native sample of every app follows, once the round's retained
// heap is garbage. The round's overhead_x is the time it took to serve
// its blocks over the time the same sessions take natively: a session's
// own time includes its wait behind the other client's, which depends on
// how the two happened to interleave.
func daemonStep(b *bench, iter int) {
	if b.rig == nil {
		b.timedSetup()
		if b.rig == nil {
			return
		}
	}
	for k := 0; k < blocksPerRound; k++ {
		b.serveBlock(k, iter)
	}
	b.heapMB = append(b.heapMB, b.closeRig(b.rig))
	var nativeMS float64
	for _, a := range b.shuffled() {
		b.prepare()
		b.native(a, "cuda.run", iter)
		xs := b.sp.get("cuda.run", a.name)
		nativeMS += xs[len(xs)-1].ms
	}
	var servedMS float64
	blocks := b.sp.get("block", "")
	for _, s := range blocks[len(blocks)-blocksPerRound:] {
		servedMS += s.ms
	}
	b.roundOverheads = append(b.roundOverheads, servedMS/(clients*blocksPerRound*nativeMS))
}

// serveBlock runs the closed loop for block k of a round: each client
// sends one session of every app, in its own seed-shuffled order, one at
// a time. A block lasts about half a second; the calibrations on either
// side of it normalize its sessions.
func (b *bench) serveBlock(k, iter int) {
	r := b.rig
	orders := make([][]*app, clients)
	for c := range orders {
		orders[c] = b.shuffled()
	}
	b.prepare()
	block := b.sp.beginScope(iter, "block")
	var wg sync.WaitGroup
	for c, order := range orders {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i, a := range order {
				n := k*len(order) + i // the client's session number in the round
				b.session(r, a, n%traceEvery == traceEvery-1, "op", lane, iter)
				if (n+1)%aggregateEvery == 0 {
					b.aggregate(r, lane, iter)
				}
			}
		}(c + 1)
	}
	wg.Wait()
	b.sp.end(block)
	b.recalibrate() // the "after" of the block and its sessions
}

// serveOnce serves one session of a on a daemon of its own, so other
// workloads' traced runs time the daemon's layers for their app too.
func (b *bench) serveOnce(a *app, iter int) {
	r, err := b.openRig()
	if !b.done("start daemon", err) {
		return
	}
	r.heap0 = b.heapNow()
	b.prepare()
	b.session(r, a, false, "ablate.served", 0, iter)
	b.aggregate(r, 0, iter)
	b.closeRig(r)
}

// session is one client session: POST /v1/sessions, then GET the report
// with ?wait=1 — the span named op runs from the POST until the report
// bytes arrived — then GET it again, now from the store, which must
// return the same bytes.
func (b *bench) session(r *rig, a *app, traceOn bool, op string, lane, iter int) {
	sp := b.sp.begin(nil, lane, iter, op, a.name)
	raw, path, err := b.attachAndWait(r, a, traceOn, sp)
	b.sp.end(sp)
	if err == nil {
		err = verify(a, raw)
	}
	if err == nil {
		g := b.sp.begin(nil, lane, iter, "daemon.get", a.name)
		again, gerr := r.get(path)
		b.sp.end(g)
		switch {
		case gerr != nil:
			err = gerr
		case !bytes.Equal(again, raw):
			err = errors.New("second GET returned different report bytes")
		}
	}
	r.n.Add(1)
	b.done(a.name+" session", err)
}

func (b *bench) attachAndWait(r *rig, a *app, traceOn bool, parent *span) (raw []byte, path string, err error) {
	body, _ := json.Marshal(map[string]any{"workload": a.name, "trace": traceOn})
	sp := b.sp.begin(parent, parent.lane, parent.iter, "daemon.attach", a.name)
	status, resp, err := r.do(http.MethodPost, "/v1/sessions", body)
	b.sp.end(sp)
	if err == nil && status != http.StatusCreated && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/sessions: %d %s", status, bytes.TrimSpace(resp))
	}
	b.mu.Lock()
	b.posted++
	if status == http.StatusAccepted {
		b.queued++
	}
	b.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	var info daemon.Info
	if err := json.Unmarshal(resp, &info); err != nil || info.ID == "" {
		return nil, "", fmt.Errorf("POST /v1/sessions: bad session info %q", resp)
	}
	path = "/v1/sessions/" + info.ID + "/report"
	sp = b.sp.begin(parent, parent.lane, parent.iter, "daemon.wait", a.name)
	raw, err = r.get(path + "?wait=1")
	b.sp.end(sp)
	return raw, path, err
}

// aggregate fetches GET /v1/aggregate.
func (b *bench) aggregate(r *rig, lane, iter int) {
	sp := b.sp.begin(nil, lane, iter, "daemon.aggregate", "")
	_, err := r.get("/v1/aggregate")
	b.sp.end(sp)
	b.done("aggregate", err)
}

// get is a GET that must answer 200.
func (r *rig) get(path string) ([]byte, error) {
	status, body, err := r.do(http.MethodGet, path, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(body))
	}
	return body, err
}

func (r *rig) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
