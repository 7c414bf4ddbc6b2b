// Command vxprof profiles one of the bundled workload reproductions with
// ValueExpert and prints the annotated profile — the CLI counterpart of
// the paper's recommended workflow (§4): run coarse-grained analysis
// first, inspect the value flow graph, then narrow fine-grained analysis
// to interesting kernels.
//
// Usage:
//
//	vxprof -workload Darknet [-device "RTX 2080 Ti"] [-coarse] [-fine]
//	       [-kernels fill_kernel,gemm_kernel] [-sample 20]
//	       [-patterns "single zero,heavy type"]
//	       [-scale 8] [-json profile.json] [-dot flow.dot] [-optimized]
//	       [-metrics m.json] [-selftrace t.json] [-overhead]
//	       [-faults malloc@2] [-faults seed=7,prob=0.05]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"valueexpert"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/cliconfig"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

func main() {
	o := &options{}
	o.Register(flag.CommandLine)
	var (
		workload  = flag.String("workload", "", "workload name (see -list)")
		list      = flag.Bool("list", false, "list available workloads and exit")
		optimized = flag.Bool("optimized", false, "run the paper-optimized variant instead of the original")
		recordOut = flag.String("record", "", "record the API+access trace to this file instead of analyzing")
		replayIn  = flag.String("replay", "", "analyze a previously recorded trace instead of running a workload")
		remoteTo  = flag.String("remote", "", "stream the run to a vxprofd attach socket (unix path or host:port) instead of analyzing locally")
	)
	flag.StringVar(&o.device, "device", "RTX 2080 Ti", "device profile: 'RTX 2080 Ti' or 'A100'")
	flag.StringVar(&o.jsonOut, "json", "", "write the profile as JSON to this file")
	flag.StringVar(&o.dotOut, "dot", "", "write the value flow graph as DOT to this file")
	flag.StringVar(&o.htmlOut, "html", "", "write the GUI report (HTML with the SVG value flow graph) to this file")
	flag.StringVar(&o.metricsOut, "metrics", "", "write the profiler's own per-stage metrics as JSON to this file")
	flag.StringVar(&o.selftraceOut, "selftrace", "", "write a Chrome trace-event self-trace (load in Perfetto) to this file")
	flag.BoolVar(&o.overhead, "overhead", false, "append the profiler-overhead section to the report")
	flag.Parse()

	if *list {
		for _, w := range workloads.All(o.Scale) {
			fmt.Println(w.Name())
		}
		return
	}
	// The shared validator covers the engine flags (-sample, -scale,
	// -reuse, -patterns, -faults) with errors that speak flag names — the
	// same surface vxprofd validates per session.
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "vxprof:", err)
		os.Exit(2)
	}
	if *replayIn != "" {
		if err := replayRun(*replayIn, o); err != nil {
			fmt.Fprintln(os.Stderr, "vxprof:", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "vxprof: -workload is required (try -list)")
		os.Exit(2)
	}
	if *recordOut != "" {
		if err := recordRun(*workload, o, *recordOut, *optimized); err != nil {
			fmt.Fprintln(os.Stderr, "vxprof:", err)
			os.Exit(1)
		}
		return
	}
	if *remoteTo != "" {
		if err := remoteRun(*remoteTo, *workload, o, *optimized); err != nil {
			fmt.Fprintln(os.Stderr, "vxprof:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, o, *optimized); err != nil {
		fmt.Fprintln(os.Stderr, "vxprof:", err)
		os.Exit(1)
	}
}

// options carries the analysis settings shared by live runs and replays:
// the engine flags live in the embedded cliconfig.Options (shared with
// vxprofd), the output artifacts are vxprof's own.
type options struct {
	cliconfig.Options

	device          string
	jsonOut, dotOut string
	htmlOut         string

	// Self-observability outputs; only -metrics and -selftrace attach a
	// telemetry recorder. The default report stays byte-identical.
	metricsOut, selftraceOut string
	overhead                 bool
}

// telemetryEnabled reports whether any self-observability output needs a
// recorder threaded through the engine.
func (o *options) telemetryEnabled() bool {
	return o.metricsOut != "" || o.selftraceOut != ""
}

// config builds the profiler configuration for the named program. The
// options must have passed Validate, so EngineConfig cannot fail here.
func (o *options) config(program string) valueexpert.Config {
	cfg, err := o.EngineConfig(program)
	if err != nil {
		panic("vxprof: " + err.Error())
	}
	return cfg
}

// analyze profiles any event source — live workload or trace replay go
// through this identical path — and emits the report and artifacts.
func analyze(src valueexpert.EventSource, o *options, program string) error {
	cfg := o.config(program)
	if plan, _ := o.FaultPlan(); plan != nil {
		// Arm before Profile attaches so the sanitizer's delivery faults
		// and the fault telemetry are wired.
		src.Runtime().ArmFaults(plan)
	}
	var tel *valueexpert.Telemetry
	var traceBuf *valueexpert.TraceBuffer
	if o.telemetryEnabled() {
		tel = valueexpert.NewTelemetry()
		if o.selftraceOut != "" {
			traceBuf = valueexpert.NewTraceBuffer()
			tel.AttachTrace(traceBuf)
		}
		cfg.Telemetry = tel
	}
	p, runErr := valueexpert.Profile(src, cfg)
	if p == nil {
		return runErr
	}
	if runErr != nil {
		// A failed program still yields a report — marked Degraded — so
		// print what was collected before propagating the failure.
		fmt.Fprintln(os.Stderr, "vxprof: program failed, profile below is partial:", runErr)
	}
	rep := p.Report()
	if o.overhead {
		rep.Overhead = p.Overhead()
	}
	fmt.Print(rep.Text())
	printSuggestions(p, rep, o.Coarse)
	if err := writeArtifacts(p, rep, o.Coarse, o.jsonOut, o.dotOut, o.htmlOut); err != nil {
		return err
	}
	if err := writeTelemetry(tel, traceBuf, o); err != nil {
		return err
	}
	return runErr
}

// writeTelemetry emits the optional self-observability artifacts.
func writeTelemetry(tel *valueexpert.Telemetry, traceBuf *valueexpert.TraceBuffer, o *options) error {
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tel.WriteMetrics(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.metricsOut)
	}
	if o.selftraceOut != "" {
		f, err := os.Create(o.selftraceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := traceBuf.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in Perfetto / chrome://tracing)\n", o.selftraceOut)
	}
	return nil
}

// recordRun captures a workload's API+access trace for later analysis,
// streaming the container to the output file.
func recordRun(workload string, o *options, out string, optimized bool) error {
	w, err := workloads.Lookup(workload, o.Scale)
	if err != nil {
		return err
	}
	prof, err := gpu.ProfileByName(o.device)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	rt := cuda.NewRuntime(prof)
	rec := trace.Record(rt, f, trace.FormatBinary)
	variant := workloads.Original
	if optimized {
		variant = workloads.Optimized
	}
	runErr := w.Run(rt, variant)
	if err := rec.Close(); err != nil {
		return fmt.Errorf("recording %s: %w", w.Name(), err)
	}
	if runErr != nil {
		return fmt.Errorf("recording %s: %w", w.Name(), runErr)
	}
	fmt.Fprintf(os.Stderr, "recorded %d events, %d access records (%d bytes) to %s\n",
		rec.Events(), rec.Accesses(), rec.BytesWritten(), out)
	return nil
}

// replayRun analyzes a recorded trace offline through the same analyze
// path a live run uses.
func replayRun(in string, o *options) error {
	prof, err := gpu.ProfileByName(o.device)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	return analyze(trace.NewSource(f, prof), o, in)
}

// remoteRun executes the workload in this process but ships its event
// stream to a vxprofd attach socket: the daemon hosts the session,
// applies the engine options, and returns the finalized report — the
// same bytes GET /v1/sessions/{id}/report would serve. The engine
// flags travel in the handshake as the canonical option schema; -scale
// stays local, because the workload executes here. -faults is rejected
// before dialing: the daemon replays the stream and cannot inject faults
// into this process's run.
func remoteRun(target, workload string, o *options, optimized bool) error {
	if o.Faults != "" {
		return fmt.Errorf("-faults cannot be combined with -remote (the daemon cannot inject faults into a streamed run)")
	}
	w, err := workloads.Lookup(workload, o.Scale)
	if err != nil {
		return err
	}
	prof, err := gpu.ProfileByName(o.device)
	if err != nil {
		return err
	}
	network := "unix"
	if strings.Contains(target, ":") {
		network = "tcp"
	}
	optsJSON, err := json.Marshal(o.Options)
	if err != nil {
		return err
	}
	rs, err := valueexpert.DialServiceAttach(network, target, valueexpert.RemoteAttachRequest{
		Program: w.Name(),
		Device:  o.device,
		Options: optsJSON,
	})
	if err != nil {
		return fmt.Errorf("remote attach %s: %w", target, err)
	}
	defer rs.Close()
	info := rs.Info()
	if info.State == valueexpert.SessionQueued {
		fmt.Fprintf(os.Stderr, "vxprof: session %s queued at position %d on %s; streaming\n",
			info.ID, info.Queue, target)
	} else {
		fmt.Fprintf(os.Stderr, "vxprof: session %s attached on %s\n", info.ID, target)
	}
	variant := workloads.Original
	if optimized {
		variant = workloads.Optimized
	}
	if err := rs.Run(prof, func(rt *cuda.Runtime) error {
		if err := w.Run(rt, variant); err != nil {
			return fmt.Errorf("running %s: %w", w.Name(), err)
		}
		return nil
	}); err != nil {
		return err
	}
	final, raw, err := rs.Wait()
	if err != nil {
		return fmt.Errorf("remote session %s: %w", info.ID, err)
	}
	if len(raw) > 0 {
		rep, err := valueexpert.ReadReport(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("remote session %s report: %w", final.ID, err)
		}
		fmt.Print(rep.Text())
	}
	if final.State != valueexpert.SessionDone {
		return fmt.Errorf("remote session %s finished %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// run profiles a live workload execution.
func run(workload string, o *options, optimized bool) error {
	w, err := workloads.Lookup(workload, o.Scale)
	if err != nil {
		return err
	}
	prof, err := gpu.ProfileByName(o.device)
	if err != nil {
		return err
	}
	variant := workloads.Original
	if optimized {
		variant = workloads.Optimized
	}
	src := valueexpert.NewLiveSource(cuda.NewRuntime(prof), func(rt *cuda.Runtime) error {
		if err := w.Run(rt, variant); err != nil {
			return fmt.Errorf("running %s: %w", w.Name(), err)
		}
		return nil
	})
	return analyze(src, o, w.Name())
}

// printSuggestions runs the advisor over the findings.
func printSuggestions(p *valueexpert.Profiler, rep *valueexpert.Report, coarse bool) {
	var g *valueexpert.Graph
	if coarse {
		g = p.Graph()
	}
	if sugs := valueexpert.Suggest(rep, g); len(sugs) > 0 {
		fmt.Println()
		fmt.Print(valueexpert.RenderSuggestions(sugs, 10))
	}
}

// writeArtifacts emits the optional JSON/DOT/HTML outputs.
func writeArtifacts(p *valueexpert.Profiler, rep *valueexpert.Report, coarse bool, jsonOut, dotOut, htmlOut string) error {
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	if dotOut != "" {
		dot := p.Graph().DOT(valueexpert.DOTOptions{
			Title:        fmt.Sprintf("%s value flow graph", rep.Program),
			WithContexts: true,
		})
		if err := os.WriteFile(dotOut, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", dotOut)
	}
	if htmlOut != "" {
		var g *valueexpert.Graph
		if coarse {
			g = p.Graph()
		}
		page := valueexpert.RenderHTML(rep, g, valueexpert.HTMLOptions{})
		if err := os.WriteFile(htmlOut, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", htmlOut)
	}
	return nil
}
