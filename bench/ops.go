package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/expgrid"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// heapEvery is how many iterations of a live or replay workload pass
// between heap probes.
const heapEvery = 20

// oneShot profiles one live run of a under its engine configuration and
// returns the written report — the reference a size without a pinned
// digest is checked against, and what the pinned digests are made from.
func oneShot(a *app) ([]byte, error) {
	p, err := core.Profile(liveSource(a), a.cfg)
	if err != nil {
		return nil, err
	}
	p.Detach()
	var buf bytes.Buffer
	err = p.Report().WriteJSON(&buf)
	return buf.Bytes(), err
}

func liveSource(a *app) cuda.EventSource {
	return cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
		return a.w.Run(rt, workloads.Original)
	})
}

// native runs a with no profiler attached and the collector paused:
// the baseline is the simulated program alone. A run of a few
// milliseconds otherwise measures whether a collection cycle happened
// to start inside it. One sample times the workload's nativeReps runs
// back to back.
func (b *bench) native(a *app, op string, iter int) {
	gcPercent := debug.SetGCPercent(-1)
	sp := b.sp.beginReps(nil, 0, iter, op, a.name, b.w.nativeReps)
	var err error
	for i := 0; i < b.w.nativeReps && err == nil; i++ {
		err = a.w.Run(cuda.NewRuntime(gpu.RTX2080Ti), workloads.Original)
	}
	b.sp.end(sp)
	debug.SetGCPercent(gcPercent)
	b.done(a.name+" native run", err)
}

// profile drives src through core.Profile under cfg, then renders the
// report (Report + WriteJSON) when render is set. In a traced run the
// engine's own telemetry is on, only so the work counters can be read.
func (b *bench) profile(a *app, src cuda.EventSource, cfg core.Config, parent *span, render bool) (*core.Profiler, []byte, error) {
	if b.traced {
		cfg.Telemetry = telemetry.New()
	}
	sp := b.sp.begin(parent, 0, parent.iter, "core.profile", a.name)
	p, err := core.Profile(src, cfg)
	if p != nil {
		p.Detach()
	}
	b.sp.end(sp)
	if err != nil || !render {
		return p, nil, err
	}
	sp = b.sp.begin(parent, 0, parent.iter, "profile.report", a.name)
	var buf bytes.Buffer
	err = p.Report().WriteJSON(&buf)
	b.sp.end(sp)
	return p, buf.Bytes(), err
}

// profileLive profiles one live run of a inside a span named op.
func (b *bench) profileLive(a *app, cfg core.Config, op string, iter int, render bool) (*core.Profiler, []byte, error) {
	sp := b.sp.begin(nil, 0, iter, op, a.name)
	defer b.sp.end(sp)
	return b.profile(a, liveSource(a), cfg, sp, render)
}

// replay profiles a recorded trace of a through trace.NewSource on the
// pipelined engine (one analysis worker, two flush buffers), inside a
// span named op.
func (b *bench) replay(a *app, data []byte, op string, iter int) (*core.Profiler, []byte, error) {
	cfg := a.cfg
	cfg.AnalysisWorkers, cfg.PipelineDepth = 1, 2
	sp := b.sp.begin(nil, 0, iter, op, a.name)
	defer b.sp.end(sp)
	return b.profile(a, trace.NewSource(bytes.NewReader(data), gpu.RTX2080Ti), cfg, sp, true)
}

// record runs a live under trace.Record and returns the VXTR container
// and its access-record count (nil on failure).
func (b *bench) record(a *app, op string, iter int) ([]byte, uint64) {
	sp := b.sp.begin(nil, 0, iter, op, a.name)
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var buf bytes.Buffer
	rec := trace.Record(rt, &buf, trace.FormatBinary)
	err := a.w.Run(rt, workloads.Original)
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	b.sp.end(sp)
	if !b.done(a.name+" record", err) {
		return nil, 0
	}
	return buf.Bytes(), rec.Accesses()
}

// scan decodes a recorded trace with trace.Scan and a no-op callback:
// the decode cost alone.
func (b *bench) scan(a *app, data []byte, iter int) {
	events := 0
	sp := b.sp.begin(nil, 0, iter, "trace.scan", a.name)
	err := trace.Scan(bytes.NewReader(data), func(*trace.Event) error {
		events++
		return nil
	})
	b.sp.end(sp)
	if err == nil && events == 0 {
		err = errors.New("decoded no events")
	}
	b.done(a.name+" trace scan", err)
}

// checked counts one report-producing op, failing it on an error or a
// report whose digest differs from the app's.
func (b *bench) checked(a *app, what string, raw []byte, err error) bool {
	if err == nil {
		err = verify(a, raw)
	}
	return b.done(a.name+" "+what, err)
}

// liveSetup is one reference pair: a native run and a profiled run whose
// report must match the pinned digest.
func liveSetup(b *bench) error {
	a := b.apps[0]
	b.native(a, "setup.cuda.run", -1)
	_, raw, err := b.profileLive(a, a.cfg, "setup.op", -1, true)
	b.checked(a, "reference profile", raw, err)
	return nil
}

// liveStep is one pair of a native run and a profiled run (core.Profile +
// Report + WriteJSON); the seed decides which goes first.
func liveStep(b *bench, iter int) {
	a := b.apps[0]
	nativeFirst := b.rng.Intn(2) == 0
	if nativeFirst {
		b.prepare()
		b.native(a, "cuda.run", iter)
	}
	b.prepare()
	p, raw, err := b.profileLive(a, a.cfg, "op", iter, true)
	b.checked(a, "profile", raw, err)
	if !nativeFirst {
		b.prepare()
		b.native(a, "cuda.run", iter)
	}
	if iter%heapEvery == 0 {
		// The finished profiler is what a caller holds after a run.
		b.heapMB = append(b.heapMB, b.heapNow())
		runtime.KeepAlive(p)
	}
}

// replaySetup verifies the checked-in capsule corpus, then records and
// replays one reference run.
func replaySetup(b *bench) error {
	caps, err := filepath.Glob(filepath.Join(b.p.corpusDir, "*.capsule"))
	if err == nil && len(caps) == 0 {
		err = fmt.Errorf("no capsules in %s", b.p.corpusDir)
	}
	if err != nil {
		return err
	}
	for _, path := range caps {
		b.done("corpus "+filepath.Base(path), expgrid.VerifyCapsule(path))
	}
	a := b.apps[0]
	if data, _ := b.record(a, "setup.trace.record", -1); data != nil {
		_, raw, err := b.replay(a, data, "setup.op", -1)
		b.checked(a, "reference replay", raw, err)
	}
	return nil
}

// replayStep records one run (the write) and replays it (the read, the
// op); a native run goes first or last as the seed decides.
func replayStep(b *bench, iter int) {
	a := b.apps[0]
	nativeFirst := b.rng.Intn(2) == 0
	if nativeFirst {
		b.prepare()
		b.native(a, "cuda.run", iter)
	}
	b.prepare()
	if data, _ := b.record(a, "trace.record", iter); data != nil {
		b.prepare()
		p, raw, err := b.replay(a, data, "op", iter)
		b.checked(a, "replay", raw, err)
		if iter%heapEvery == 0 {
			b.heapMB = append(b.heapMB, b.heapNow())
			runtime.KeepAlive(p)
			runtime.KeepAlive(data)
		}
	}
	if !nativeFirst {
		b.prepare()
		b.native(a, "cuda.run", iter)
	}
}

// sweep runs every layer configuration once per app, in a seed-chosen
// order, for the traced run's ablation metrics: native, coarse only,
// fine with no pattern detectors, fine, the full engine with its report,
// a recording, a bare decode of it, a replay of it, and (unless the
// workload serves its apps already) one daemon session.
func (b *bench) sweep(iter int) {
	for _, a := range b.shuffled() {
		b.prepare()
		data, accesses := b.record(a, "trace.record", iter)
		if data != nil && b.traceBytes[a.name] == 0 {
			b.traceBytes[a.name] = float64(len(data))
			b.traceAccesses[a.name] = float64(accesses)
		}
		coarse, noPatterns, fine := a.cfg, a.cfg, a.cfg
		coarse.Fine = false
		noPatterns.Coarse, noPatterns.Patterns = false, []string{}
		fine.Coarse = false
		configs := []func(){
			func() { b.native(a, "cuda.run", iter) },
			func() { b.ablate(a, coarse, "ablate.coarse", iter) },
			func() { b.ablate(a, noPatterns, "ablate.fine_nopat", iter) },
			func() { b.ablate(a, fine, "ablate.fine", iter) },
			func() {
				p, raw, err := b.profileLive(a, a.cfg, "ablate.full", iter, true)
				if b.checked(a, "full profile", raw, err) && !b.counted[a.name] {
					b.counted[a.name] = true
					b.addCounts(p.Telemetry().Metrics().Counters)
				}
			},
		}
		if data != nil {
			configs = append(configs,
				func() { b.scan(a, data, iter) },
				func() {
					_, raw, err := b.replay(a, data, "ablate.replay", iter)
					b.checked(a, "replay", raw, err)
				})
		}
		if b.w.serveInSweep {
			configs = append(configs, func() { b.serveOnce(a, iter) })
		}
		b.rng.Shuffle(len(configs), func(i, j int) { configs[i], configs[j] = configs[j], configs[i] })
		for _, run := range configs {
			b.prepare()
			run()
		}
	}
}

// ablate profiles one live run under a partial configuration; its report
// differs from the full one, so only errors count as failures.
func (b *bench) ablate(a *app, cfg core.Config, op string, iter int) {
	_, _, err := b.profileLive(a, cfg, op, iter, false)
	b.done(a.name+" "+op, err)
}

// addCounts folds one full-engine run's work counters into the run's
// per-layer counts.
func (b *bench) addCounts(c map[string]uint64) {
	for name, v := range c {
		switch {
		case name == "sanitizer.records", name == "sanitizer.flushes",
			name == "merge.input_intervals", name == "merge.output_intervals":
			b.counts[name] += float64(v)
		case strings.HasPrefix(name, "stage.") && strings.HasSuffix(name, ".batches"):
			b.counts["core.stage_batches"] += float64(v)
		case strings.HasPrefix(name, "snapshot.copy_bytes."):
			b.counts["snapshot.copy_bytes"] += float64(v)
		}
	}
}
