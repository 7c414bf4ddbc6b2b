package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"valueexpert/callpath"
	"valueexpert/gpu"
)

// fuzzSampleBinary builds a small well-formed binary container
// exercising every chunk kind: the dictionary, frame encoding, a launch
// with delta/RLE columns, a capsule header, and host bytes.
func fuzzSampleBinary(tb testing.TB) []byte {
	return encodeEvents(tb,
		&Event{Kind: kindCapsule, Capsule: &CapsuleInfo{
			Program: "fuzz", Device: "A100", LaunchSeq: 3, LaunchIndex: 0, ObjectIDs: []int{1},
		}},
		&Event{Kind: kindAllocAt, Name: "cudaMalloc", ObjID: 1, Dst: 0x7f00_0000_0000, Bytes: 64, Tag: "x",
			Frames: []callpath.Frame{{Func: "main.run", File: "main.go", Line: 10}}},
		&Event{Kind: kindRestore, Name: "restore", Dst: 0x7f00_0000_0000, Bytes: 4, HostSrc: []byte{1, 2, 3, 4}},
		&Event{Kind: kindMemset, Name: "cudaMemset", Dst: 0x7f00_0000_0000, Bytes: 8},
		&Event{Kind: kindLaunch, Name: "k", Seq: 3,
			Grid: [3]int{2, 1, 1}, Block: [3]int{32, 1, 1},
			Accesses: []gpu.Access{
				{PC: 0x10, Addr: 0x7f00_0000_0000, Size: 4, Kind: 1, Raw: 0x3f800000, Block: 0, Thread: 0},
				{PC: 0x18, Addr: 0x7f00_0000_0004, Size: 4, Kind: 1, Store: true, Raw: 0, Count: 3, Block: 1, Thread: 2},
			}},
		&Event{Kind: kindFree, Name: "cudaFree", Dst: 0x7f00_0000_0000},
	)
}

// FuzzScan feeds the trace decoder arbitrary bytes: it must never panic
// and never allocate proportionally to a length field a malformed input
// merely claims, and any input it rejects must carry a typed
// *FormatError locating the malformation.
func FuzzScan(f *testing.F) {
	sample := fuzzSampleBinary(f)
	f.Add(sample)
	for _, cut := range []int{1, 4, 7, 8, 9, len(sample) / 2, len(sample) - 1} {
		if cut < len(sample) {
			f.Add(sample[:cut])
		}
	}
	for _, mut := range []int{0, 4, 6, 8, 9, 10} {
		if mut < len(sample) {
			c := append([]byte(nil), sample...)
			c[mut] ^= 0xff
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("VXTR"))
	f.Add([]byte(`{"kind":"malloc","name":"cudaMalloc","bytes":64,"dst":1234}` + "\n"))
	f.Add([]byte(`{"kind":"warp"}` + "\n not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := Scan(bytes.NewReader(data), func(e *Event) error {
			// Decoded events must re-encode: the decoder may only produce
			// field values the writer's validation admits.
			if werr := NewWriter(io.Discard).WriteEvent(e); werr != nil {
				t.Fatalf("decoded event does not re-encode: %v (%+v)", werr, e)
			}
			return nil
		})
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode error is not a *FormatError: %v", err)
			}
		}
	})
}
