package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/trace"
)

// overwriteKernel is one thread that loads n float32 ones and then stores
// 2.0 over each of them. With bulk set the loads are one BulkLoad range
// record; otherwise they are n scalar loads. A load observes the value it
// read, so both forms must yield the same fine-grained report.
func overwriteKernel(x cuda.DevPtr, n int, bulk bool) *gpu.GoKernel {
	return &gpu.GoKernel{Name: "overwrite", Func: func(th *gpu.Thread) {
		if th.GlobalID() != 0 {
			return
		}
		if bulk {
			th.BulkLoad(0, uint64(x), n, 4, gpu.KindFloat)
		} else {
			for i := 0; i < n; i++ {
				th.LoadF32(0, uint64(x)+uint64(4*i))
			}
		}
		for i := 0; i < n; i++ {
			th.StoreF32(1, uint64(x)+uint64(4*i), 2)
		}
	}}
}

// runOverwrite runs the overwrite program on rt.
func runOverwrite(t *testing.T, rt *cuda.Runtime, bulk bool) {
	t.Helper()
	const n = 1024
	x, err := rt.MallocF32(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	if err := rt.CopyF32ToDevice(x, ones); err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(overwriteKernel(x, n, bulk), gpu.Dim1(1), gpu.Dim1(32)); err != nil {
		t.Fatal(err)
	}
}

// overwriteFine profiles the overwrite program live, or recorded and then
// replayed, and returns its report's fine section as JSON.
func overwriteFine(t *testing.T, cfg Config, bulk, replay bool) []byte {
	t.Helper()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var p *Profiler
	if replay {
		var buf bytes.Buffer
		rec := trace.Record(rt, &buf, trace.FormatBinary)
		runOverwrite(t, rt, bulk)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if p, err = Profile(trace.NewSource(&buf, gpu.RTX2080Ti), cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		p = Attach(rt, cfg)
		runOverwrite(t, rt, bulk)
		p.Detach()
	}
	out, err := json.Marshal(p.Report().Fine)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBulkLoadCapturedAtAccessTime: a load range's values are the ones
// the load read, not what later stores of the same launch left behind,
// whether the stores share the range's flush buffer, spill into later
// buffers, or are re-applied by a replay.
func TestBulkLoadCapturedAtAccessTime(t *testing.T) {
	for _, tc := range []struct {
		name   string
		buffer int
		replay bool
	}{
		{"default buffers", 0, false},
		{"8-record buffers", 8, false},
		{"replay", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Fine: true, BufferRecords: tc.buffer}
			scalar := overwriteFine(t, cfg, false, tc.replay)
			bulk := overwriteFine(t, cfg, true, tc.replay)
			if !bytes.Equal(bulk, scalar) {
				t.Errorf("BulkLoad fine section differs from scalar loads:\n bulk   %s\n scalar %s", bulk, scalar)
			}
			if !bytes.Contains(scalar, []byte(`"distinct_values":2`)) {
				t.Errorf("scalar loads then stores should see 2 distinct values: %s", scalar)
			}
		})
	}
}
