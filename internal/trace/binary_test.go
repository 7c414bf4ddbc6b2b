package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"valueexpert/callpath"
	"valueexpert/gpu"
)

// sampleEvents builds a diverse event list covering every kind and every
// column encoding path (deltas in both directions, RLE flag runs, XOR'd
// raws, optional counts, frames, host payloads, the string dictionary).
func sampleEvents() []*Event {
	frames := []callpath.Frame{
		{Func: "main.run", File: "main.go", Line: 42},
		{Func: "layers.forward", File: "layers.go", Line: 7},
	}
	return []*Event{
		{Kind: kindMalloc, Name: "cudaMalloc", Frames: frames, Dst: 0x7f00_0000_0000, Bytes: 4096, Tag: "weights"},
		{Kind: kindMemset, Name: "cudaMemset", Dst: 0x7f00_0000_0000, Bytes: 4096, MemsetV: 0xab},
		{Kind: kindMemcpy, Name: "cudaMemcpy", Dst: 0x7f00_0000_0100, Src: 0, Bytes: 8,
			CopyKind: uint8(gpu.CopyHostToDevice), HostSrc: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: kindLaunch, Name: "gemm_kernel", Frames: frames,
			Grid: [3]int{4, 2, 1}, Block: [3]int{64, 1, 1},
			Counters: gpu.LaunchCounters{Loads: 7, Stores: 3, BytesLoaded: 28, BytesStored: 12, FP32Ops: 11},
			Accesses: []gpu.Access{
				{PC: 0x40, Addr: 0x7f00_0000_0000, Size: 4, Kind: gpu.KindFloat, Raw: 0x3f800000},
				{PC: 0x40, Addr: 0x7f00_0000_0004, Size: 4, Kind: gpu.KindFloat, Raw: 0x3f800000, Thread: 1},
				{PC: 0x48, Addr: 0x7f00_0000_0000, Size: 8, Kind: gpu.KindFloat, Store: true,
					Raw: 0x4000_0000_0000_0000, Count: 17, Block: 2, Thread: 31},
				{PC: 0x20, Addr: 0x7f00_0000_0800, Size: 1, Kind: gpu.KindInt, Raw: 0xff},
			}},
		{Kind: kindMemcpy, Name: "cudaMemcpy", Dst: 0, Src: 0x7f00_0000_0000, Bytes: 16,
			CopyKind: uint8(gpu.CopyDeviceToHost)},
		{Kind: kindLaunch, Name: "gemm_kernel", Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1}},
		{Kind: kindFree, Name: "cudaFree", Dst: 0x7f00_0000_0000},
	}
}

// TestBinaryRoundTrip: every field of every event kind survives the
// columnar encoding. Comparison goes through the canonical JSON form,
// which normalizes nil-vs-empty slices.
func TestBinaryRoundTrip(t *testing.T) {
	data := encodeEvents(t, sampleEvents()...)
	want := sampleEvents()
	i := 0
	if err := Scan(bytes.NewReader(data), func(e *Event) error {
		if i >= len(want) {
			t.Fatalf("decoded %d events, wrote %d", i+1, len(want))
		}
		w := *want[i]
		w.Seq = i + 1 // the reader numbers the stream
		gotJS, _ := json.Marshal(e)
		wantJS, _ := json.Marshal(&w)
		if !bytes.Equal(gotJS, wantJS) {
			t.Fatalf("event %d differs:\ngot:  %s\nwant: %s", i, gotJS, wantJS)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d events, wrote %d", i, len(want))
	}
}

// maxBytesPerAccess caps the Darknet recording's binary size per access
// record: 11.79 when the cap was set, plus 25 % headroom.
const maxBytesPerAccess = 14.7

// TestBinaryCompression asserts the size criterion the format exists
// for: the Darknet recording costs at most maxBytesPerAccess bytes per
// access record.
func TestBinaryCompression(t *testing.T) {
	bin := recordDarknet(t)
	var accesses int
	if err := Scan(bytes.NewReader(bin), func(e *Event) error {
		accesses += len(e.Accesses)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if accesses == 0 {
		t.Fatal("recording holds no access records")
	}
	perAccess := float64(len(bin)) / float64(accesses)
	if perAccess > maxBytesPerAccess {
		t.Fatalf("binary %d bytes for %d access records: %.2f B/access > %.1f", len(bin), accesses, perAccess, maxBytesPerAccess)
	}
	t.Logf("binary %d bytes, %.2f B/access", len(bin), perAccess)
}

// TestBinaryTruncation cuts a valid container at every byte boundary:
// no prefix may decode cleanly (the end chunk is mandatory), and the
// failure must be a typed *FormatError — a cut inside the magic too.
func TestBinaryTruncation(t *testing.T) {
	data := encodeEvents(t, sampleEvents()...)
	for cut := 1; cut < len(data); cut++ {
		err := Scan(bytes.NewReader(data[:cut]), func(e *Event) error { return nil })
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: error is not a *FormatError: %v", cut, err)
		}
	}
}

// TestBinaryCountMismatch: a forged end chunk whose totals disagree with
// the decoded stream is rejected.
func TestBinaryCountMismatch(t *testing.T) {
	data := encodeEvents(t, &Event{Kind: kindMalloc, Name: "cudaMalloc", Dst: 0x7f00_0000_0000, Bytes: 64})
	// The end chunk is the final 4 bytes here: type 0x03, length 2,
	// event count 1, access count 0. Forge the event count.
	forged := append([]byte(nil), data...)
	forged[len(forged)-2] = 9
	err := Scan(bytes.NewReader(forged), func(e *Event) error { return nil })
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("forged end chunk accepted: %v", err)
	}
}

// TestWriterStreams: the binary writer emits each event's chunk as it is
// written — recording does not buffer the run — and Close appends only
// the fixed-size footer.
func TestWriterStreams(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	last := 0
	for i, e := range sampleEvents() {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
		if buf.Len() <= last {
			t.Fatalf("event %d did not reach the writer (%d bytes before, %d after)", i, last, buf.Len())
		}
		last = buf.Len()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if grown := buf.Len() - last; grown <= 0 || grown > 32 {
		t.Fatalf("Close appended %d bytes, want a small footer", grown)
	}
	if got := w.BytesWritten(); got != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, buffer holds %d", got, buf.Len())
	}
}

// TestWriterRejectsAfterClose: the writer is single-use.
func TestWriterRejectsAfterClose(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(&Event{Kind: kindFree, Name: "cudaFree"}); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}
