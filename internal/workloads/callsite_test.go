package workloads

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
)

// profileJSON profiles one workload either directly from the calling
// goroutine or from a spawned goroutine with a different stack, and
// returns the normalized report bytes.
func profileJSON(w Workload, indirect bool) ([]byte, error) {
	cfg := core.Config{Coarse: true, Fine: true, Program: w.Name()}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	run := func(rt *cuda.Runtime) error { return w.Run(rt, Original) }
	var p *core.Profiler
	var err error
	if indirect {
		done := make(chan struct{})
		go func() {
			defer close(done)
			p, err = core.Profile(cuda.NewLiveSource(rt, run), cfg)
		}()
		<-done
	} else {
		p, err = core.Profile(cuda.NewLiveSource(rt, run), cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name(), err)
	}
	p.Detach()
	rep := *p.Report()
	rep.Stats.AnalysisTime = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestReportsCallSiteIndependent: every bundled workload's report must
// not depend on which goroutine or call site drives it — every GPU API
// call needs a synthetic frame covering it, or the captured Go stack
// leaks the harness entry point into the report's call paths. The
// vxprofd daemon relies on this: a session (run on a stream-handler
// goroutine) must produce bytes identical to a one-shot vxprof run of
// the same workload.
func TestReportsCallSiteIndependent(t *testing.T) {
	t.Parallel()
	for _, w := range All(testScale) {
		direct, err := profileJSON(w, false)
		if err != nil {
			t.Fatal(err)
		}
		indirect, err := profileJSON(w, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, indirect) {
			t.Errorf("%s: report depends on the call site (an API call is missing its synthetic frame)", w.Name())
		}
	}
}

// TestConcurrentScalesMatchSerial: workloads bound to different scales,
// including one application at two scales, run at the same time and
// each reports exactly what it reports alone. The size belongs to the
// workload value, so concurrent runs cannot resize each other.
func TestConcurrentScalesMatchSerial(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		scale int
	}{{"Darknet", 64}, {"Rodinia/bfs", 32}, {"Rodinia/bfs", 64}}
	serial := make([][]byte, len(cases))
	for i, c := range cases {
		w, err := Lookup(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		if serial[i], err = profileJSON(w, false); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(serial[1], serial[2]) {
		t.Fatal("Rodinia/bfs reports the same bytes at scales 32 and 64")
	}

	concurrent := make([][]byte, len(cases))
	errs := make([]error, len(cases))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := Lookup(c.name, c.scale)
			if err == nil {
				<-start
				concurrent[i], err = profileJSON(w, false)
			}
			errs[i] = err
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(concurrent[i], serial[i]) {
			t.Errorf("%s at scale %d: concurrent report differs from its serial run", c.name, c.scale)
		}
	}
}
