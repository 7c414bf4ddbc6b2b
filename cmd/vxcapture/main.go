// Command vxcapture turns one kernel launch of a recorded trace into a
// self-contained capsule and replays capsules in isolation — the
// record → capture → replay workflow. A capsule is an ordinary trace
// container holding the launch, its data objects (pinned at their
// original IDs and addresses), and the pre-launch bytes of exactly the
// ranges the launch touches, so re-profiling it yields the same
// per-launch findings as the full-trace profile.
//
// Usage:
//
//	vxcapture -trace run.trace -list
//	vxcapture -trace run.trace -launch 3 -out gemm.capsule
//	          [-device "RTX 2080 Ti"] [-program Darknet]
//	vxcapture -capsule gemm.capsule [-json report.json]
//	          [-fine] [-reuse] [-kernels ...] [-patterns ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"valueexpert/gpu"
	"valueexpert/internal/capsule"
	"valueexpert/internal/cliconfig"
)

func main() {
	o := &cliconfig.Options{}
	o.Register(flag.CommandLine)
	var (
		tracePath   = flag.String("trace", "", "recorded trace to capture from (see vxprof -record)")
		list        = flag.Bool("list", false, "list the trace's kernel launches and exit")
		launch      = flag.Int("launch", -1, "zero-based launch index to capture")
		out         = flag.String("out", "", "write the capsule to this file")
		device      = flag.String("device", "RTX 2080 Ti", "device profile the trace was recorded on")
		program     = flag.String("program", "", "program name for the capsule metadata (default: trace file name)")
		capsulePath = flag.String("capsule", "", "replay and re-profile a capsule instead of capturing")
		jsonOut     = flag.String("json", "", "write the capsule's report as JSON to this file")
	)
	flag.Parse()

	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "vxcapture:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case *capsulePath != "":
		err = reprofile(*capsulePath, o, *jsonOut)
	case *tracePath != "" && *list:
		err = listLaunches(*tracePath)
	case *tracePath != "" && *launch >= 0:
		if *out == "" {
			fmt.Fprintln(os.Stderr, "vxcapture: -launch requires -out")
			os.Exit(2)
		}
		err = extract(*tracePath, *launch, *out, *device, *program)
	default:
		fmt.Fprintln(os.Stderr, "vxcapture: need -trace with -list or -launch, or -capsule (see -h)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxcapture:", err)
		os.Exit(1)
	}
}

// listLaunches prints the trace's launch table, the input to -launch.
func listLaunches(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	launches, err := capsule.Launches(f)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "INDEX\tSEQ\tKERNEL\tACCESS RECORDS")
	for _, l := range launches {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\n", l.Index, l.Seq, l.Kernel, l.Records)
	}
	return tw.Flush()
}

// extract captures one launch into a capsule file.
func extract(tracePath string, launch int, out, device, program string) error {
	prof, err := gpu.ProfileByName(device)
	if err != nil {
		return err
	}
	if program == "" {
		program = filepath.Base(tracePath)
	}
	in, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := capsule.Extract(in, launch, f, capsule.ExtractOptions{
		Device: prof, Program: program,
	})
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "captured launch %d (seq %d) with %d data objects (%d bytes) to %s\n",
		info.LaunchIndex, info.LaunchSeq, len(info.ObjectIDs), st.Size(), out)
	return nil
}

// reprofile replays a capsule in isolation and prints its report.
// Coarse analysis is forced off (capsules restore only the touched
// ranges, not whole-object snapshots); the remaining dimensions match
// the launch's slice of the full-trace profile byte for byte under the
// same configuration.
func reprofile(path string, o *cliconfig.Options, jsonOut string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg, err := o.EngineConfig("")
	if err != nil {
		return err
	}
	rep, info, err := capsule.Reprofile(data, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capsule: %s launch %d (seq %d) on %s, %d data objects\n",
		info.Program, info.LaunchIndex, info.LaunchSeq, info.Device, len(info.ObjectIDs))
	fmt.Print(rep.Text())
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
	return nil
}
