// Package expgrid holds the capsule replay corpus: a few representative
// kernel launches, extracted with the cmd/vxcapture machinery and checked
// in under testdata/corpus/ next to their recorded reports. Replaying a
// checked-in capsule does exactly the same analysis work on every machine,
// so the corpus is a byte-deterministic correctness fixture: each capsule
// must still reprofile byte-identical to its recorded report
// (TestCorpusCapsulesByteIdentity, and the replay workload's set-up in
// bench/).
package expgrid

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/capsule"
	"valueexpert/internal/core"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// CorpusConfig is the analysis configuration corpus reports are recorded
// and verified under: the per-launch dimensions a capsule reproduces
// (coarse snapshots need whole-object images a capsule does not carry),
// with the flush-boundary-sensitive buffer size pinned.
func CorpusConfig() core.Config {
	return core.Config{Fine: true, ReuseDistance: true, BufferRecords: 128}
}

// CorpusFiles lists a corpus directory's capsules in sorted order.
func CorpusFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.capsule"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

// reportPath is the recorded-report sibling of a capsule file.
func reportPath(capsulePath string) string {
	return strings.TrimSuffix(capsulePath, ".capsule") + ".report.json"
}

// VerifyCapsule reprofiles one corpus capsule under CorpusConfig and
// compares the report bytes against the recorded sibling report.
func VerifyCapsule(capsulePath string) error {
	data, err := os.ReadFile(capsulePath)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(reportPath(capsulePath))
	if err != nil {
		return fmt.Errorf("%s: missing recorded report: %w", capsulePath, err)
	}
	rep, _, err := capsule.Reprofile(data, CorpusConfig())
	if err != nil {
		return fmt.Errorf("%s: %w", capsulePath, err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("%s: reprofiled report differs from the recorded %s — the corpus has rotted; regenerate it deliberately (go test ./internal/expgrid -run TestCorpus -update-corpus) and review the diff",
			capsulePath, reportPath(capsulePath))
	}
	return nil
}

// corpusEntry pins one corpus capsule: which workload, at which scale,
// which launch of its recording.
type corpusEntry struct {
	Workload string
	Scale    int
	Launch   int
}

// corpusEntries is the checked-in corpus definition — representative
// launches from two applications: Darknet's fill and gemm kernels (the
// paper's §8.1 case study) and backprop's FP64-heavy layer kernel.
var corpusEntries = []corpusEntry{
	{Workload: "Darknet", Scale: 64, Launch: 0},          // fill_kernel
	{Workload: "Darknet", Scale: 64, Launch: 1},          // gemm_kernel
	{Workload: "Rodinia/backprop", Scale: 16, Launch: 0}, // bpnn_layerforward_CUDA
}

// BuildCorpus records each entry's workload, extracts the pinned launch
// into dir as a capsule, reprofiles it, and writes the recorded report
// beside it. It returns the capsule paths written. Regeneration is
// deliberate (a test -update flag), never automatic: the recorded
// reports are the gate's ground truth.
func BuildCorpus(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range corpusEntries {
		recording, err := record(e.Workload, e.Scale)
		if err != nil {
			return nil, err
		}
		launches, err := capsule.Launches(bytes.NewReader(recording))
		if err != nil {
			return nil, err
		}
		if e.Launch >= len(launches) {
			return nil, fmt.Errorf("corpus: %s has %d launches, entry pins %d", e.Workload, len(launches), e.Launch)
		}
		var capBuf bytes.Buffer
		_, err = capsule.Extract(bytes.NewReader(recording), e.Launch, &capBuf, capsule.ExtractOptions{
			Device: gpu.RTX2080Ti, Program: e.Workload,
		})
		if err != nil {
			return nil, fmt.Errorf("corpus: %s launch %d: %w", e.Workload, e.Launch, err)
		}
		name := fmt.Sprintf("%s-l%d-%s.capsule", slug(e.Workload), e.Launch, slug(launches[e.Launch].Kernel))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, capBuf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		rep, _, err := capsule.Reprofile(capBuf.Bytes(), CorpusConfig())
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		var repBuf bytes.Buffer
		if err := rep.WriteJSON(&repBuf); err != nil {
			return nil, err
		}
		if err := os.WriteFile(reportPath(path), repBuf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// record produces one binary-container recording of a workload.
func record(workload string, scale int) ([]byte, error) {
	w, err := workloads.Lookup(workload, scale)
	if err != nil {
		return nil, err
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var buf bytes.Buffer
	rec := trace.Record(rt, &buf, trace.FormatBinary)
	if err := w.Run(rt, workloads.Original); err != nil {
		rec.Close()
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// slug makes a workload or kernel name filesystem-friendly.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
