// Package proptest is the property-based differential harness: for a
// seed it generates a random GPU program (workloads.RandomProgram) and
// checks engine-wide invariants across execution modes —
//
//	(a) two runs of the engine produce byte-identical reports, so the
//	    analysis goroutine's scheduling never shows, also with the fine
//	    value histograms capped at 8 distinct values so that saturation
//	    runs through the whole engine;
//	(b) profiling a live run and profiling its recorded trace produce
//	    byte-identical reports;
//	(c) under injected faults the engine either surfaces a typed error
//	    or marks the report Degraded — it never returns a silently
//	    different "clean" report;
//	(d) every run, faulted or not, releases all its goroutines;
//	(e) running the program as a daemon session (internal/daemon) on a
//	    stream-handler goroutine produces a report byte-identical to
//	    the one-shot baseline;
//	(f) the recorded VXTR trace of (b) replays byte-identically to the
//	    live run (binary ≡ live), and a kernel capsule extracted from it
//	    for a random launch re-profiles in isolation byte-identically to
//	    that launch's slice of the full-trace report (capsule ≡ slice);
//	(g) the program streamed to a daemon over the remote-attach socket —
//	    queued behind a running session, then admitted — produces a
//	    report byte-identical to profiling it in process with the same
//	    canonical options;
//	(h) bulk ≡ scalar: the program with every BulkLoad lowered to
//	    scalar loads of the same elements yields an equal fine section,
//	    with and without saturating histograms, so a load range reports
//	    the values its loads read, not what later stores left behind.
//
// CheckSeed runs all of these for one seed and reports the first
// violation.
// The harness is deliberately a plain function returning error so `make
// proptest` can print the failing seed and a one-line repro command.
package proptest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/capsule"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/core"
	"valueexpert/internal/daemon"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/profile"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// cfg builds the engine configuration used by every run of a seed. Small
// buffers force several flushes per kernel so the hand-off and fault paths
// are actually exercised.
func cfg() core.Config {
	return core.Config{
		Coarse: true, Fine: true,
		BufferRecords: 128,
		Program:       "proptest",
	}
}

// saturatingCfg is cfg with the fine value histograms capped at 8
// distinct values, so most objects saturate.
func saturatingCfg() core.Config {
	c := cfg()
	c.FineConfig.MaxTrackedValues = 8
	return c
}

// seededProbability is the per-call fire probability of the randomized
// fault plan each seed runs in addition to the fixed per-point plans.
const seededProbability = 0.15

// runOutcome captures everything one profiled execution produced.
type runOutcome struct {
	report   []byte
	fine     []byte // the report's fine section alone
	degraded *profile.Degraded
	errs     []error
	fired    int
}

// execute runs the seed's program on a fresh runtime from a fresh
// goroutine entry, with attach installing whichever observer the caller
// needs (profiler, trace recorder) before the program starts. Every
// execution — profiled, recording, faulted — funnels through this one
// call site so captured host call paths are identical across runs; the
// byte-identity properties depend on this.
func execute(prog *workloads.RandomProgram, attach func(rt *cuda.Runtime)) []error {
	var (
		errs []error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		attach(rt)
		errs = prog.Run(rt)
	}()
	wg.Wait()
	return errs
}

// runLive executes prog with plan armed (nil = no faults) and a profiler
// attached.
func runLive(prog workloads.RandomProgram, plan *faultinject.Plan, c core.Config) (runOutcome, error) {
	var p *core.Profiler
	errs := execute(&prog, func(rt *cuda.Runtime) {
		rt.ArmFaults(plan)
		p = core.Attach(rt, c)
	})
	p.Detach()
	out := runOutcome{errs: errs, fired: plan.TotalFired()}
	rep := p.Report()
	out.degraded = rep.Degraded
	var err error
	if out.fine, err = json.Marshal(rep.Fine); err != nil {
		return out, err
	}
	out.report, err = reportBytes(rep)
	return out, err
}

// record executes the seed's clean run once with a streaming recorder
// and returns the serialized trace.
func record(seed int64) ([]byte, error) {
	var buf bytes.Buffer
	var rec *trace.Recorder
	errs := execute(&workloads.RandomProgram{Seed: seed, Tolerant: true}, func(rt *cuda.Runtime) {
		rec = trace.Record(rt, &buf, trace.FormatBinary)
	})
	if len(errs) != 0 {
		rec.Close()
		return nil, fmt.Errorf("recording run failed: %v", errs[0])
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("trace serialization: %w", err)
	}
	return buf.Bytes(), nil
}

// replay profiles a serialized trace under c.
func replay(data []byte, c core.Config) ([]byte, error) {
	p, err := core.Profile(trace.NewSource(bytes.NewReader(data), gpu.RTX2080Ti), c)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return reportBytes(p.Report())
}

// reportBytes serializes a report with the one wall-clock field zeroed so
// byte comparison tests semantic equality.
func reportBytes(rep *profile.Report) ([]byte, error) {
	rep.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// awaitGoroutines waits for the goroutine count to settle back to base,
// absorbing transient runtime goroutines; a count still above base after
// the deadline is a leak.
func awaitGoroutines(base int) error {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running, %d at start",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// faultPlans enumerates the fault scenarios a seed is checked under: one
// fixed single-shot plan per fault point (including a mid-kernel launch
// fault) plus a seed-randomized plan firing everywhere with probability
// seededProbability.
func faultPlans(seed int64) []struct {
	name string
	plan *faultinject.Plan
} {
	return []struct {
		name string
		plan *faultinject.Plan
	}{
		{"malloc@1", faultinject.New().FailNth(faultinject.Malloc, 1)},
		{"memcpy@1", faultinject.New().FailNth(faultinject.Memcpy, 1)},
		{"memset@1", faultinject.New().FailNth(faultinject.Memset, 1)},
		{"launch@1", faultinject.New().FailLaunchNth(1, 0)},
		{"launch@1+7", faultinject.New().FailLaunchNth(1, 7)},
		{"flush-drop@1", faultinject.New().FailNth(faultinject.FlushDrop, 1)},
		{"flush-truncate@1", faultinject.New().FailNth(faultinject.FlushTruncate, 1)},
		{"flush-delay@1", faultinject.New().FailNth(faultinject.FlushDelay, 1)},
		{"seeded", faultinject.Seeded(seed).WithProbability(seededProbability)},
	}
}

// CheckSeed verifies properties (a)–(g) for one seed and returns the
// first violation found, nil if the seed holds.
func CheckSeed(seed int64) error {
	base := runtime.NumGoroutine()

	// Baseline: clean run.
	tolerant := workloads.RandomProgram{Seed: seed, Tolerant: true}
	baseline, err := runLive(tolerant, nil, cfg())
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	if len(baseline.errs) != 0 {
		return fmt.Errorf("baseline run reported API errors: %v", baseline.errs[0])
	}
	if baseline.degraded != nil {
		return fmt.Errorf("baseline run without faults produced a Degraded report")
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after baseline run: %w", err)
	}

	// (a) A second run is identical.
	again, err := runLive(tolerant, nil, cfg())
	if err != nil {
		return fmt.Errorf("second run: %w", err)
	}
	if !bytes.Equal(baseline.report, again.report) {
		return fmt.Errorf("property (a): two runs' reports differ (%d vs %d bytes)",
			len(baseline.report), len(again.report))
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after second run: %w", err)
	}
	sat, err := runLive(tolerant, nil, saturatingCfg())
	if err != nil {
		return fmt.Errorf("saturating run: %w", err)
	}
	satAgain, err := runLive(tolerant, nil, saturatingCfg())
	if err != nil {
		return fmt.Errorf("second saturating run: %w", err)
	}
	if !bytes.Equal(sat.report, satAgain.report) {
		return fmt.Errorf("property (a): with 8 tracked values, two runs' reports differ (%d vs %d bytes)",
			len(sat.report), len(satAgain.report))
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after saturating runs: %w", err)
	}

	// (b) Replaying a recorded trace reproduces the live report (the
	// binary ≡ live half of property (f)); the capsule check below reuses
	// the recording.
	binTrace, err := record(seed)
	if err != nil {
		return fmt.Errorf("property (b): %w", err)
	}
	replayed, err := replay(binTrace, cfg())
	if err != nil {
		return fmt.Errorf("property (b): %w", err)
	}
	if !bytes.Equal(baseline.report, replayed) {
		return fmt.Errorf("property (b): live and replayed reports differ (%d vs %d bytes)",
			len(baseline.report), len(replayed))
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after replay run: %w", err)
	}

	// (f) Capsule isolation: re-profiling an extracted launch reproduces
	// that launch's slice of the full-trace report byte for byte.
	if err := checkCapsule(seed, binTrace); err != nil {
		return fmt.Errorf("property (f): %w", err)
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after capsule run: %w", err)
	}

	// (c) Faulted runs surface typed errors or a Degraded report — never
	// a silently different clean report.
	for _, fp := range faultPlans(seed) {
		out, err := runLive(tolerant, fp.plan, cfg())
		if err != nil {
			return fmt.Errorf("fault plan %s: %w", fp.name, err)
		}
		for _, e := range out.errs {
			var ce *cuda.Error
			if !errors.As(e, &ce) {
				return fmt.Errorf("fault plan %s: untyped error %T: %v", fp.name, e, e)
			}
		}
		switch {
		case len(out.errs) > 0 || out.degraded != nil:
			// Degradation was surfaced; fine.
		case out.fired > 0:
			return fmt.Errorf("fault plan %s: %d faults fired but the run reported neither an error nor a Degraded report",
				fp.name, out.fired)
		case !bytes.Equal(baseline.report, out.report):
			return fmt.Errorf("property (c): plan %s never fired yet the report differs from baseline (%d vs %d bytes)",
				fp.name, len(baseline.report), len(out.report))
		}
		if err := awaitGoroutines(base); err != nil {
			return fmt.Errorf("after fault plan %s: %w", fp.name, err)
		}
	}

	// Intolerant program under an allocation fault: the first error stops
	// the program and is a typed *cuda.Error carrying the OOM code.
	out, err := runLive(workloads.RandomProgram{Seed: seed}, faultinject.New().FailNth(faultinject.Malloc, 1), cfg())
	if err != nil {
		return fmt.Errorf("intolerant run: %w", err)
	}
	if len(out.errs) != 1 {
		return fmt.Errorf("intolerant run returned %d errors, want exactly 1", len(out.errs))
	}
	var ce *cuda.Error
	if !errors.As(out.errs[0], &ce) || ce.Code != cuda.ErrOOM || !ce.Injected {
		return fmt.Errorf("intolerant run error = %v, want injected OOM", out.errs[0])
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after intolerant run: %w", err)
	}

	// (e) The multi-tenant lifecycle reproduces the one-shot lifecycle:
	// the same program attached as a daemon session — profiled on a
	// stream-handler goroutine, finalized by the session machinery —
	// yields the baseline report byte for byte.
	viaDaemon, err := runDaemonSession(seed, cfg())
	if err != nil {
		return fmt.Errorf("property (e): %w", err)
	}
	if !bytes.Equal(baseline.report, viaDaemon) {
		return fmt.Errorf("property (e): daemon-session and one-shot reports differ (%d vs %d bytes)",
			len(baseline.report), len(viaDaemon))
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after daemon-session run: %w", err)
	}

	// (g) Remote attach through a full admission queue reproduces the
	// in-process profile byte for byte.
	if err := checkRemoteAttach(seed); err != nil {
		return fmt.Errorf("property (g): %w", err)
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after remote-attach run: %w", err)
	}

	// (h) Lowering every BulkLoad to scalar loads leaves the fine section
	// unchanged, with and without saturating histograms.
	lowered := workloads.RandomProgram{Seed: seed, Tolerant: true, ScalarLoads: true}
	for i, c := range []core.Config{cfg(), saturatingCfg()} {
		bulk := []runOutcome{baseline, sat}[i]
		scalar, err := runLive(lowered, nil, c)
		if err != nil || len(scalar.errs) != 0 {
			return fmt.Errorf("property (h): run with scalar loads: %v %v", err, scalar.errs)
		}
		if !bytes.Equal(bulk.fine, scalar.fine) {
			return fmt.Errorf("property (h): with %d tracked values, the fine sections with range and scalar loads differ (%d vs %d bytes)",
				c.FineConfig.MaxTrackedValues, len(bulk.fine), len(scalar.fine))
		}
	}
	if err := awaitGoroutines(base); err != nil {
		return fmt.Errorf("after bulk-vs-scalar runs: %w", err)
	}
	return nil
}

// checkRemoteAttach profiles the seed's program twice with the same
// canonical options — once in process, once streamed to a daemon over
// the remote-attach socket where the session first queues behind a
// running blocker — and demands byte-identical reports.
func checkRemoteAttach(seed int64) error {
	opts := cliconfig.Options{Coarse: true, Fine: true, Sample: 1, Scale: 1}
	ecfg, err := opts.EngineConfig("proptest")
	if err != nil {
		return err
	}
	var p *core.Profiler
	errs := execute(&workloads.RandomProgram{Seed: seed, Tolerant: true}, func(rt *cuda.Runtime) { p = core.Attach(rt, ecfg) })
	if len(errs) != 0 {
		return fmt.Errorf("in-process run failed: %v", errs[0])
	}
	p.Detach()
	want, err := reportBytes(p.Report())
	if err != nil {
		return err
	}

	svc := daemon.NewService(daemon.WithLimits(daemon.Limits{MaxRunning: 1, MaxQueued: 4}))
	defer svc.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	as := svc.ServeAttach(ln, daemon.HandlerConfig{Defaults: opts, Device: "RTX 2080 Ti"})
	defer as.Close()

	gate := make(chan struct{})
	if _, err := svc.Attach(daemon.SessionConfig{
		Program: "blocker", Device: gpu.RTX2080Ti, Engine: cfg(),
		Run: func(rt *cuda.Runtime) error { <-gate; return nil },
	}); err != nil {
		return fmt.Errorf("blocker attach: %w", err)
	}

	rs, err := daemon.DialAttach("tcp", ln.Addr().String(), daemon.AttachRequest{Program: "proptest"})
	if err != nil {
		close(gate)
		return fmt.Errorf("dial attach: %w", err)
	}
	defer rs.Close()
	if st := rs.Info().State; st != daemon.StateQueued {
		close(gate)
		return fmt.Errorf("remote session admitted %s, want queued behind the blocker", st)
	}
	// Free the slot before streaming: a large trace must not deadlock on
	// the socket buffer while the daemon is not yet reading.
	close(gate)
	if err := rs.Run(gpu.RTX2080Ti, func(rt *cuda.Runtime) error {
		prog := &workloads.RandomProgram{Seed: seed, Tolerant: true}
		if errs := prog.Run(rt); len(errs) > 0 {
			return errs[0]
		}
		return nil
	}); err != nil {
		return fmt.Errorf("remote run: %w", err)
	}
	info, raw, err := rs.Wait()
	if err != nil {
		return fmt.Errorf("completion: %w", err)
	}
	if info.State != daemon.StateDone {
		return fmt.Errorf("remote session finished %s: %s", info.State, info.Error)
	}
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("completion report: %w", err)
	}
	got, err := reportBytes(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("remote-attach and in-process reports differ (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// capsuleCfg is the analysis configuration both sides of the capsule
// comparison run: per-launch dimensions only (fine values + reuse
// distance), since a capsule restores touched ranges rather than
// whole-run memory images.
func capsuleCfg() core.Config {
	return core.Config{
		Fine: true, ReuseDistance: true,
		BufferRecords: 128,
		Program:       "proptest",
	}
}

// checkCapsule extracts a seed-chosen launch from the recorded binary
// trace, re-profiles it in isolation, and compares byte-for-byte against
// the same launch's slice of the full-trace report.
func checkCapsule(seed int64, binTrace []byte) error {
	launches, err := capsule.Launches(bytes.NewReader(binTrace))
	if err != nil {
		return fmt.Errorf("scanning launches: %w", err)
	}
	if len(launches) == 0 {
		return fmt.Errorf("recorded trace has no launches")
	}
	idx := int(uint64(seed) % uint64(len(launches)))

	p, err := core.Profile(trace.NewSource(bytes.NewReader(binTrace), gpu.RTX2080Ti), capsuleCfg())
	if err != nil {
		return fmt.Errorf("full replay: %w", err)
	}
	fullRep := p.Report()

	var capBuf bytes.Buffer
	info, err := capsule.Extract(bytes.NewReader(binTrace), idx, &capBuf, capsule.ExtractOptions{
		Device:  gpu.RTX2080Ti,
		Program: "proptest",
	})
	if err != nil {
		return fmt.Errorf("extract launch %d: %w", idx, err)
	}
	repro, _, err := capsule.Reprofile(capBuf.Bytes(), capsuleCfg())
	if err != nil {
		return fmt.Errorf("re-profile launch %d: %w", idx, err)
	}
	want, err := reportBytes(capsule.Slice(fullRep, info))
	if err != nil {
		return err
	}
	got, err := reportBytes(repro)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("capsule re-profile of launch %d (%s) differs from the full-report slice (%d vs %d bytes)",
			idx, launches[idx].Kernel, len(got), len(want))
	}
	return nil
}

// runDaemonSession profiles the seed's program as a daemon session and
// returns the normalized report bytes once the session finalizes.
func runDaemonSession(seed int64, c core.Config) ([]byte, error) {
	svc := daemon.NewService()
	defer svc.Shutdown()
	sess, err := svc.Attach(daemon.SessionConfig{
		Program: c.Program,
		Device:  gpu.RTX2080Ti,
		Engine:  c,
		Run: func(rt *cuda.Runtime) error {
			prog := &workloads.RandomProgram{Seed: seed, Tolerant: true}
			if errs := prog.Run(rt); len(errs) > 0 {
				return errs[0]
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	if err := sess.Drain(); err != nil {
		return nil, fmt.Errorf("session run: %w", err)
	}
	rep, ok := sess.Report()
	if !ok {
		return nil, fmt.Errorf("session finalized without a report")
	}
	cp := *rep
	return reportBytes(&cp)
}
