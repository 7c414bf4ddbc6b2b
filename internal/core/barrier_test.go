package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
)

// snapshotter mirrors vxprofd's ?partial=1 path: after forwarding every
// third APIEnd it renders a report on the stream goroutine, between API
// events.
type snapshotter struct {
	*Profiler
	t     testing.TB
	n     int
	snaps [][]byte
}

func (s *snapshotter) APIEnd(ev *cuda.APIEvent) {
	s.Profiler.APIEnd(ev)
	if s.n++; s.n%3 == 0 {
		s.snaps = append(s.snaps, reportJSON(s.t, s.Profiler))
	}
}

// oracleCfg makes every launch span many batches.
var oracleCfg = Config{Coarse: true, Fine: true, ReuseDistance: true, BufferRecords: 128, Program: "barriers"}

// TestAnalysisBarriers: every point that hands engine state to a caller
// waits for the analysis goroutine, and the goroutine exits once its
// queue is empty. In each case the result must be byte-identical to the
// synchronous reference.
func TestAnalysisBarriers(t *testing.T) {
	t.Run("eviction", func(t *testing.T) {
		cfg := oracleCfg
		cfg.RetainDeadObjects = 2
		evicted := 0
		matchesSynchronous(t, func(inline bool) []byte {
			rt := cuda.NewRuntime(gpu.RTX2080Ti)
			p := attachMode(rt, cfg, inline)
			churn(t, rt, 12, 1024)
			evicted = p.EvictedObjects()
			p.Detach()
			return reportJSON(t, p)
		})
		if evicted == 0 {
			t.Fatal("no dead object was evicted")
		}
	})

	t.Run("kernel fault mid-launch", func(t *testing.T) {
		base := runtime.NumGoroutine()
		matchesSynchronous(t, func(inline bool) []byte {
			var out []byte
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // one goroutine entry keeps call paths identical
				defer wg.Done()
				rt := cuda.NewRuntime(gpu.RTX2080Ti)
				rt.ArmFaults(faultinject.New().FailLaunchNth(1, 700))
				p := attachMode(rt, oracleCfg, inline)
				faultyQuickstart(rt)
				if p.Report().Degraded.SkippedLaunches != 1 {
					t.Error("the faulted launch was not skipped")
				}
				p.Detach()
				out = reportJSON(t, p)
			}()
			wg.Wait()
			return out
		})
		requireNoGoroutineLeak(t, base)
	})

	t.Run("partial report mid-run", func(t *testing.T) {
		matchesSynchronous(t, func(inline bool) []byte {
			rt := cuda.NewRuntime(gpu.RTX2080Ti)
			snap := &snapshotter{Profiler: attachMode(rt, oracleCfg, inline), t: t}
			rt.SetInterceptor(snap)
			runQuickstart(t, rt)
			snap.Detach()
			if len(snap.snaps) < 2 {
				t.Fatalf("%d snapshots, want several", len(snap.snaps))
			}
			return bytes.Join(append(snap.snaps, reportJSON(t, snap.Profiler)), []byte("\n"))
		})
	})

	t.Run("sequential profiles", func(t *testing.T) {
		cfg := oracleCfg
		cfg.RetainDeadObjects = 1
		program := func(rt *cuda.Runtime) error {
			rt.PushFrame(callpath.Frame{Func: "program", File: "program.go", Line: 1})
			defer rt.PopFrame()
			churn(t, rt, 3, 256)
			return nil
		}
		ref, err := cuda.Drive(cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), program),
			func(rt *cuda.Runtime) *Profiler { return attachMode(rt, cfg, true) })
		if err != nil {
			t.Fatal(err)
		}
		ref.Detach()
		want := reportJSON(t, ref)

		base := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			p, err := Profile(cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), program), cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Detach()
			if got := reportJSON(t, p); !bytes.Equal(want, got) {
				t.Fatalf("run %d: report differs from the synchronous reference", i)
			}
		}
		requireNoGoroutineLeak(t, base)
	})
}

// TestDetachReleasesFlushBuffers: a detached profiler holds no flush
// buffer, no batch shell and no fine accumulator, and a profiler
// installed again allocates them afresh and still collects.
func TestDetachReleasesFlushBuffers(t *testing.T) {
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := Attach(rt, Config{Fine: true, BufferRecords: 128})
	fine := p.stages[0].(*fineStage)
	const n = 1024
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	launch := func(val float32) {
		if err := rt.Launch(fillKernel(x, val, n), gpu.Dim1(n/128), gpu.Dim1(128)); err != nil {
			t.Fatal(err)
		}
	}
	launch(1)
	p.barrier()
	first := fine.acc
	if first == nil {
		t.Fatal("a profiled launch created no fine accumulator")
	}
	p.Detach()
	if b := p.san.Buffers(); b != 0 || fine.acc != nil {
		t.Fatalf("detached profiler holds %d flush buffers and fine accumulator %p", b, fine.acc)
	}

	rt.SetInterceptor(p)
	launch(2)
	if b := p.san.Buffers(); b == 0 {
		t.Fatal("attached again, the profiler allocated no flush buffer")
	}
	p.barrier()
	if fine.acc == nil || fine.acc == first {
		t.Fatal("attached again, the profiler created no new fine accumulator")
	}
	p.Detach()
	rep := p.Report()
	if len(rep.Fine) != 2 || rep.Fine[1].Stores != n {
		t.Fatalf("fine records after re-attaching = %+v", rep.Fine)
	}
}
