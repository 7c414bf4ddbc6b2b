package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
	"valueexpert/internal/workloads"
)

// recordDarknet records the Darknet workload and returns the serialized
// trace.
func recordDarknet(t *testing.T) []byte {
	t.Helper()
	w, err := workloads.Lookup("Darknet", 64)
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var buf bytes.Buffer
	rec := Record(rt, &buf, FormatBinary)
	if err := w.Run(rt, workloads.Original); err != nil {
		t.Fatal(err)
	}
	if rec.Events() == 0 {
		t.Fatal("nothing recorded")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// profileLive profiles the workload directly for comparison.
func profileLive(t *testing.T) *profile.Report {
	t.Helper()
	w, _ := workloads.Lookup("Darknet", 64)
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	p := core.Attach(rt, core.Config{Coarse: true, Fine: true, Program: "Darknet"})
	if err := w.Run(rt, workloads.Original); err != nil {
		t.Fatal(err)
	}
	return p.Report()
}

// TestReplayMatchesLiveProfile is the core guarantee: analyzing a replayed
// trace yields the same findings as analyzing the live run.
func TestReplayMatchesLiveProfile(t *testing.T) {
	data := recordDarknet(t)
	live := profileLive(t)

	var p2 *core.Profiler
	if err := Replay(bytes.NewReader(data), gpu.RTX2080Ti, func(rt *cuda.Runtime) {
		p2 = core.Attach(rt, core.Config{Coarse: true, Fine: true, Program: "Darknet"})
	}); err != nil {
		t.Fatal(err)
	}
	replayed := p2.Report()

	if !reflect.DeepEqual(live.PatternSet(), replayed.PatternSet()) {
		t.Fatalf("pattern sets differ:\nlive:     %v\nreplayed: %v",
			live.PatternSet(), replayed.PatternSet())
	}
	if live.RedundantBytes() != replayed.RedundantBytes() {
		t.Fatalf("redundant bytes: live %d, replayed %d",
			live.RedundantBytes(), replayed.RedundantBytes())
	}
	if len(live.Coarse) != len(replayed.Coarse) {
		t.Fatalf("coarse records: live %d, replayed %d", len(live.Coarse), len(replayed.Coarse))
	}
	if len(live.Fine) != len(replayed.Fine) {
		t.Fatalf("fine records: live %d, replayed %d", len(live.Fine), len(replayed.Fine))
	}
	if !reflect.DeepEqual(live.DuplicateGroups, replayed.DuplicateGroups) {
		t.Fatalf("duplicate groups differ: %v vs %v", live.DuplicateGroups, replayed.DuplicateGroups)
	}
	// Per-record fine pattern agreement.
	for i := range live.Fine {
		lp, rp := live.Fine[i], replayed.Fine[i]
		if lp.Kernel != rp.Kernel || lp.Accesses != rp.Accesses || len(lp.Patterns) != len(rp.Patterns) {
			t.Fatalf("fine record %d differs:\nlive:     %+v\nreplayed: %+v", i, lp, rp)
		}
	}
}

// TestReplayWithDifferentAnalysis re-analyzes the same trace with a
// different configuration — the decoupling the trace exists for.
func TestReplayWithDifferentAnalysis(t *testing.T) {
	data := recordDarknet(t)
	var p *core.Profiler
	if err := Replay(bytes.NewReader(data), gpu.RTX2080Ti, func(rt *cuda.Runtime) {
		p = core.Attach(rt, core.Config{
			Coarse:       true,
			Fine:         true,
			KernelFilter: func(name string) bool { return name == "gemm_kernel" },
			Program:      "Darknet-gemm-only",
		})
	}); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	for _, f := range rep.Fine {
		if f.Kernel != "gemm_kernel" {
			t.Fatalf("filter ignored on replay: %+v", f)
		}
	}
	if len(rep.Fine) == 0 {
		t.Fatal("no fine records for the filtered kernel")
	}
}

// TestReplayGVProf replays the same trace into the baseline tool.
func TestReplayCountsPreserved(t *testing.T) {
	// Record a tiny run with known counters and check the cost model
	// receives the recorded execution counters on replay.
	rt := cuda.NewRuntime(gpu.A100)
	var buf bytes.Buffer
	rec := Record(rt, &buf, FormatBinary)
	const n = 512
	x, _ := rt.MallocF32(n, "x")
	k := &gpu.GoKernel{
		Name: "w",
		Func: func(th *gpu.Thread) {
			i := th.GlobalID()
			if i >= n {
				return
			}
			th.CountFP64(3)
			th.StoreF32(0, uint64(x)+uint64(4*i), float32(i))
		},
	}
	if err := rt.Launch(k, gpu.Dim1(2), gpu.Dim1(256)); err != nil {
		t.Fatal(err)
	}
	liveStats := rt.Device().Stats()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var replayRT *cuda.Runtime
	if err := Replay(bytes.NewReader(buf.Bytes()), gpu.A100, func(rt *cuda.Runtime) {
		replayRT = rt
	}); err != nil {
		t.Fatal(err)
	}
	rs := replayRT.Device().Stats()
	if rs.Stores != liveStats.Stores || rs.FP64Ops != liveStats.FP64Ops {
		t.Fatalf("counters: live %+v, replayed %+v", liveStats, rs)
	}
	if rs.KernelTime != liveStats.KernelTime {
		t.Fatalf("kernel time: live %v, replayed %v", liveStats.KernelTime, rs.KernelTime)
	}
	// Device memory reconstructed from the stores.
	raw, err := replayRT.Device().Mem.LoadRaw(uint64(x)+4*100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Float32FromRaw(raw) != 100 {
		t.Fatalf("replayed memory = %v, want 100", gpu.Float32FromRaw(raw))
	}
}

// encodeEvents serializes events into a VXTR container.
func encodeEvents(tb testing.TB, events ...*Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.WriteEvent(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayErrors(t *testing.T) {
	var fe *FormatError
	if err := Replay(strings.NewReader(`{"kind":"malloc"}`+"\n"), gpu.A100, nil); !errors.As(err, &fe) {
		t.Fatalf("non-VXTR input: got %v, want a *FormatError", err)
	}

	// A hand-built event chunk whose kind byte names no event kind.
	free := encodeEvents(t, &Event{Kind: kindFree, Name: "cudaFree", Dst: 0x40})
	// Header (8 bytes), then the event chunk: type, length, kind byte.
	if free[8] != chunkEvent || free[10] != bkFree {
		t.Fatalf("unexpected layout % x", free[:11])
	}
	unknown := append([]byte(nil), free...)
	unknown[10] = 0x7f
	if err := Replay(bytes.NewReader(unknown), gpu.A100, nil); !errors.As(err, &fe) ||
		!strings.Contains(fe.Msg, "unknown event kind") {
		t.Fatalf("unknown event kind: got %v, want a *FormatError", err)
	}

	// Allocator divergence: a malloc event with the wrong recorded address.
	bad := encodeEvents(t, &Event{Kind: kindMalloc, Name: "cudaMalloc", Bytes: 64, Dst: 1234, Tag: "x"})
	if err := Replay(bytes.NewReader(bad), gpu.A100, nil); err == nil ||
		!strings.Contains(err.Error(), "allocator divergence") {
		t.Fatalf("allocator divergence: got %v", err)
	}
}
