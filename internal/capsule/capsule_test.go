package capsule

import (
	"bytes"
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
	"valueexpert/internal/trace"
	"valueexpert/internal/workloads"
)

// capsuleCfg is the analysis configuration both sides of the identity
// check run: per-launch dimensions only (a capsule cannot reproduce
// whole-run snapshots).
func capsuleCfg() core.Config {
	return core.Config{
		Fine: true, ReuseDistance: true, BufferRecords: 128, Program: "Darknet",
	}
}

// recordDarknet records the Darknet workload into a binary container.
func recordDarknet(t *testing.T) []byte {
	t.Helper()
	w, err := workloads.Lookup("Darknet", 64)
	if err != nil {
		t.Fatal(err)
	}
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	var buf bytes.Buffer
	rec := trace.Record(rt, &buf, trace.FormatBinary)
	if err := w.Run(rt, workloads.Original); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportBytes(t *testing.T, rep *profile.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCapsuleByteIdentity is the package contract: re-profiling an
// extracted capsule yields byte-for-byte the launch's slice of the
// full-trace profile, for every launch of the Darknet recording's first
// iteration (each kernel shape once).
func TestCapsuleByteIdentity(t *testing.T) {
	data := recordDarknet(t)

	p, err := core.Profile(trace.NewSource(bytes.NewReader(data), gpu.RTX2080Ti), capsuleCfg())
	if err != nil {
		t.Fatal(err)
	}
	full := p.Report()
	full.Stats = profile.RunStats{}

	launches, err := Launches(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(launches) == 0 {
		t.Fatal("no launches in the Darknet trace")
	}
	for idx := 0; idx < len(launches) && idx < 4; idx++ {
		var capBuf bytes.Buffer
		info, err := Extract(bytes.NewReader(data), idx, &capBuf, ExtractOptions{
			Device: gpu.RTX2080Ti, Program: "Darknet",
		})
		if err != nil {
			t.Fatalf("launch %d: %v", idx, err)
		}
		if info.LaunchIndex != idx || info.LaunchSeq != launches[idx].Seq {
			t.Fatalf("launch %d: metadata %+v disagrees with listing %+v", idx, info, launches[idx])
		}
		if len(info.ObjectIDs) == 0 {
			t.Fatalf("launch %d: capsule carries no data objects", idx)
		}
		if capBuf.Len() >= len(data) {
			t.Fatalf("launch %d: capsule (%d bytes) not smaller than the full trace (%d bytes)",
				idx, capBuf.Len(), len(data))
		}

		repro, gotInfo, err := Reprofile(capBuf.Bytes(), capsuleCfg())
		if err != nil {
			t.Fatalf("launch %d: %v", idx, err)
		}
		if gotInfo.LaunchSeq != info.LaunchSeq {
			t.Fatalf("launch %d: reprofile read seq %d, extract wrote %d",
				idx, gotInfo.LaunchSeq, info.LaunchSeq)
		}
		want := reportBytes(t, Slice(full, info))
		got := reportBytes(t, repro)
		if !bytes.Equal(got, want) {
			t.Fatalf("launch %d (%s): capsule report differs from the full-trace slice\ngot:  %s\nwant: %s",
				idx, launches[idx].Kernel, got, want)
		}
	}
}

// TestLaunchListing: the launch table matches the trace's event stream.
func TestLaunchListing(t *testing.T) {
	data := recordDarknet(t)
	launches, err := Launches(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range launches {
		if l.Index != i || l.Kernel == "" || l.Records == 0 || l.Seq == 0 {
			t.Fatalf("launch entry %d malformed: %+v", i, l)
		}
	}
	count := 0
	if err := trace.Scan(bytes.NewReader(data), func(e *trace.Event) error {
		if e.Kind == "launch" {
			count++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(launches) {
		t.Fatalf("listing has %d launches, trace has %d", len(launches), count)
	}
}

// TestExtractErrors: out-of-range indices and capsule-of-capsule are
// rejected with errors that say so.
func TestExtractErrors(t *testing.T) {
	data := recordDarknet(t)
	opt := ExtractOptions{Device: gpu.RTX2080Ti, Program: "Darknet"}

	if _, err := Extract(bytes.NewReader(data), -1, &bytes.Buffer{}, opt); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("negative index: %v", err)
	}
	if _, err := Extract(bytes.NewReader(data), 1<<20, &bytes.Buffer{}, opt); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("huge index: %v", err)
	}

	var capBuf bytes.Buffer
	if _, err := Extract(bytes.NewReader(data), 0, &capBuf, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(bytes.NewReader(capBuf.Bytes()), 0, &bytes.Buffer{}, opt); err == nil ||
		!strings.Contains(err.Error(), "already a capsule") {
		t.Fatalf("capsule of a capsule: %v", err)
	}
}

// TestReadInfoErrors: a plain trace is not a capsule.
func TestReadInfoErrors(t *testing.T) {
	data := recordDarknet(t)
	if _, err := ReadInfo(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "not a capsule") {
		t.Fatalf("plain trace accepted as capsule: %v", err)
	}
}
