package trace

import (
	"bytes"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/workloads"
)

// reportBytes serializes a report with the one wall-clock field zeroed so
// byte comparison tests semantic equality.
func reportBytes(t *testing.T, p *core.Profiler) []byte {
	t.Helper()
	rep := p.Report()
	rep.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSourcesByteIdentical drives the identical configuration through
// both event sources — live execution and trace replay — and requires
// byte-identical reports: the unified stream contract.
func TestSourcesByteIdentical(t *testing.T) {
	for _, name := range []string{"Darknet", "PyTorch-Bert"} {
		w, err := workloads.Lookup(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			// Both live executions — the recording one and the profiled
			// ones — run from this single goroutine entry, so API events
			// capture identical host call paths; the replay then re-emits
			// the recorded ones.
			var wg sync.WaitGroup
			runLive := func(attach func(rt *cuda.Runtime)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					src := cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
						return w.Run(rt, workloads.Original)
					})
					attach(src.Runtime())
					if err := src.Run(); err != nil {
						t.Error(err)
					}
				}()
				wg.Wait()
			}

			var rec *Recorder
			var data bytes.Buffer
			runLive(func(rt *cuda.Runtime) { rec = Record(rt, &data, FormatBinary) })
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			cfg := core.Config{
				Coarse: true, Fine: true,
				BufferRecords: 512,
				Program:       name,
			}

			var pLive *core.Profiler
			runLive(func(rt *cuda.Runtime) { pLive = core.Attach(rt, cfg) })

			pReplay, err := core.Profile(NewSource(bytes.NewReader(data.Bytes()), gpu.RTX2080Ti), cfg)
			if err != nil {
				t.Fatal(err)
			}

			liveJSON := reportBytes(t, pLive)
			replayJSON := reportBytes(t, pReplay)
			if !bytes.Equal(liveJSON, replayJSON) {
				t.Fatalf("live and replayed reports differ (%d vs %d bytes)",
					len(liveJSON), len(replayJSON))
			}
		})
	}
}

// TestLiveSourceErrorSurfaces: a failing program's error comes back
// through Profile with the partial profile intact.
func TestLiveSourceErrorSurfaces(t *testing.T) {
	src := cuda.NewLiveSource(cuda.NewRuntime(gpu.A100), func(rt *cuda.Runtime) error {
		if _, err := rt.MallocF32(16, "x"); err != nil {
			return err
		}
		return rt.Free(cuda.DevPtr(0xbad)) // not an allocation
	})
	p, err := core.Profile(src, core.Config{Coarse: true})
	if err == nil {
		t.Fatal("bad free did not surface")
	}
	if p == nil || len(p.Report().Objects) != 1 {
		t.Fatal("partial profile lost on error")
	}
}
