// Package trace records a GPU program's API and memory-access stream to a
// portable container and replays it into a fresh profiler — decoupling
// measurement from analysis, so one expensive instrumented run can be
// re-analyzed offline with different thresholds, copy strategies, or
// analyses (the postmortem side of the paper's offline analyzer).
//
// The container (VXTR) is versioned, chunked and columnar: a
// magic/version header, one chunk per API event, and per-launch access
// columns (PC/addr/size/kind/raw/block/thread as separate
// delta+varint-encoded columns). The Writer streams — each chunk is
// emitted as its launch completes, so recording peak memory is bounded
// by one launch, not the run. See DESIGN.md §10 for the wire format.
//
// Replay reconstructs device memory from the recorded effects: memsets
// and copies are re-applied, and kernel stores are re-applied from the
// recorded access records, so snapshot-based coarse analysis sees
// byte-identical values.
//
// The container also carries kernel capsules (internal/capsule): the
// alloc_at/restore event kinds pin allocations to their original IDs and
// addresses and restore the minimal reachable memory, so one extracted
// launch replays in isolation.
package trace

import (
	"fmt"
	"io"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
)

// Format names a trace encoding. VXTR is the only one; the type remains
// because Record's signature carries it (see Record).
type Format uint8

// FormatBinary is the VXTR container.
const FormatBinary Format = 0

// Event is one recorded API invocation — the portable vocabulary the
// container serializes. Beyond the recorded runtime APIs, three kinds
// exist only in capsule containers: "alloc_at" pins an allocation to its
// original ID and address, "restore" writes a snapshot of device bytes
// back without an API event, and "capsule" carries the capsule metadata.
type Event struct {
	Kind   string           `json:"kind"` // malloc|free|memset|memcpy|launch|alloc_at|restore|capsule
	Seq    int              `json:"seq"`
	Name   string           `json:"name"`
	Frames []callpath.Frame `json:"frames,omitempty"`

	Dst      uint64 `json:"dst,omitempty"`
	Src      uint64 `json:"src,omitempty"`
	Bytes    uint64 `json:"bytes,omitempty"`
	CopyKind uint8  `json:"copy_kind,omitempty"`
	MemsetV  byte   `json:"memset_value,omitempty"`
	HostSrc  []byte `json:"host_src,omitempty"` // H2D payload / restore bytes
	Tag      string `json:"tag,omitempty"`

	Grid     [3]int             `json:"grid,omitempty"`
	Block    [3]int             `json:"block,omitempty"`
	Counters gpu.LaunchCounters `json:"counters,omitempty"`
	Accesses []gpu.Access       `json:"accesses,omitempty"`

	// ObjID is an alloc_at event's preserved allocation ID.
	ObjID int `json:"obj_id,omitempty"`

	// Capsule holds a "capsule" event's metadata.
	Capsule *CapsuleInfo `json:"capsule,omitempty"`
}

// CapsuleInfo is the metadata of a kernel capsule: which launch of which
// program it was extracted from, and which data objects it carries.
type CapsuleInfo struct {
	// Program names the application the capsule was extracted from.
	Program string `json:"program"`
	// Device is the device profile name the trace was recorded on.
	Device string `json:"device"`
	// LaunchSeq is the launch's API sequence number in the full trace.
	LaunchSeq int `json:"launch_seq"`
	// LaunchIndex is the launch's zero-based index among the trace's
	// launches.
	LaunchIndex int `json:"launch_index"`
	// ObjectIDs lists the allocation IDs the launch touches (0 = the
	// shared-memory window), in address order.
	ObjectIDs []int `json:"object_ids,omitempty"`
}

// NewWriter creates a streaming encoder emitting the container to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, dict: make(map[string]uint64)}
}

// WriteEvent serializes one event.
func (bw *Writer) WriteEvent(e *Event) error {
	if bw.closed {
		return fmt.Errorf("trace: write to closed writer")
	}
	bw.events++
	if e.Kind == kindLaunch {
		bw.accesses += uint64(len(e.Accesses))
	}
	return bw.writeEvent(e)
}

// Close finalizes the container by writing the end chunk (event and
// access-record counts) readers use to detect truncation. Close does not
// close the underlying writer. Idempotent.
func (bw *Writer) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	return bw.writeEnd()
}

// BytesWritten reports the encoded size so far.
func (bw *Writer) BytesWritten() int64 { return bw.n }

// Recorder is a cuda.Interceptor that streams the captured event stream
// to a Writer as the program runs: each API event is encoded at its
// APIEnd and each launch's access chunk is flushed when the launch
// completes, so recording holds at most one launch's records in memory.
//
// If the runtime already has an interceptor attached (a profiler), the
// recorder chains in front of it and forwards every callback, so a run
// can be profiled and recorded at once (the daemon's trace sessions).
type Recorder struct {
	rt    *cuda.Runtime
	inner cuda.Interceptor
	w     *Writer
	cur   []gpu.Access
	err   error
}

// Record attaches a streaming recorder to the runtime, encoding the
// container to w. Recording instruments every kernel (no sampling): the
// point is to capture once and analyze often. Close the recorder after
// the program ran to detach it and finalize the container.
//
// The Format argument is ignored; it stays only so the bench module's
// existing Record(rt, w, FormatBinary) call keeps compiling.
func Record(rt *cuda.Runtime, w io.Writer, _ Format) *Recorder {
	r := &Recorder{rt: rt, inner: rt.Interceptor(), w: NewWriter(w)}
	rt.SetInterceptor(r)
	return r
}

// Detach removes the recorder from the runtime, restoring whatever
// interceptor it chained in front of.
func (r *Recorder) Detach() { r.rt.SetInterceptor(r.inner) }

// Close detaches the recorder and finalizes the container, returning the
// first error recording hit (encode errors are sticky: APIEnd cannot
// fail, so they surface here).
func (r *Recorder) Close() error {
	r.Detach()
	if err := r.w.Close(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Events reports the number of events recorded so far.
func (r *Recorder) Events() int { return r.w.events }

// Accesses reports the number of access records recorded so far.
func (r *Recorder) Accesses() uint64 { return r.w.accesses }

// BytesWritten reports the encoded size so far.
func (r *Recorder) BytesWritten() int64 { return r.w.n }

// Err returns the first sticky recording error, if any.
func (r *Recorder) Err() error { return r.err }

// APIBegin implements cuda.Interceptor.
func (r *Recorder) APIBegin(ev *cuda.APIEvent) {
	if r.inner != nil {
		r.inner.APIBegin(ev)
	}
}

// Instrumentation implements cuda.Interceptor. The recorder always
// instruments (nil filter — every block); a chained interceptor's hook
// is forwarded behind its own block filter, so its observed stream is
// unchanged.
func (r *Recorder) Instrumentation(kernelName string) (gpu.AccessFunc, func(int32) bool) {
	r.cur = r.cur[:0]
	var innerHook gpu.AccessFunc
	var innerFilter func(int32) bool
	if r.inner != nil {
		innerHook, innerFilter = r.inner.Instrumentation(kernelName)
	}
	return func(a gpu.Access) {
		r.cur = append(r.cur, a)
		if innerHook != nil && (innerFilter == nil || innerFilter(a.Block)) {
			innerHook(a)
		}
	}, nil
}

// Drain implements cuda.Drainer by forwarding to the chained
// interceptor, so a profiler behind the recorder still quiesces when a
// kernel fails mid-execution.
func (r *Recorder) Drain() {
	if d, ok := r.inner.(cuda.Drainer); ok {
		d.Drain()
	}
}

// APIEnd implements cuda.Interceptor: the event is encoded immediately.
func (r *Recorder) APIEnd(ev *cuda.APIEvent) {
	if r.inner != nil {
		r.inner.APIEnd(ev)
	}
	e := Event{Seq: ev.Seq, Name: ev.Name, Frames: ev.Frames}
	switch ev.Kind {
	case cuda.APIMalloc:
		e.Kind = kindMalloc
		e.Dst, e.Bytes = ev.Dst, ev.Bytes
		if a := r.rt.Device().Mem.Lookup(ev.Dst); a != nil {
			e.Tag = a.Tag
		}
	case cuda.APIFree:
		e.Kind = kindFree
		e.Dst = ev.Dst
	case cuda.APIMemset:
		e.Kind = kindMemset
		e.Dst, e.Bytes, e.MemsetV = ev.Dst, ev.Bytes, ev.MemsetValue
	case cuda.APIMemcpy:
		e.Kind = kindMemcpy
		e.Dst, e.Src, e.Bytes, e.CopyKind = ev.Dst, ev.Src, ev.Bytes, uint8(ev.CopyKind)
		if ev.CopyKind == gpu.CopyHostToDevice {
			e.HostSrc = ev.HostSrc
		}
	case cuda.APILaunch:
		e.Kind = kindLaunch
		e.Grid = [3]int{ev.Grid.X, ev.Grid.Y, ev.Grid.Z}
		e.Block = [3]int{ev.Block.X, ev.Block.Y, ev.Block.Z}
		e.Counters = ev.Counters
		e.Accesses = r.cur
		r.cur = r.cur[:0]
	}
	if err := r.w.WriteEvent(&e); err != nil && r.err == nil {
		r.err = err
	}
}

// The event kind vocabulary.
const (
	kindMalloc  = "malloc"
	kindFree    = "free"
	kindMemset  = "memset"
	kindMemcpy  = "memcpy"
	kindLaunch  = "launch"
	kindAllocAt = "alloc_at"
	kindRestore = "restore"
	kindCapsule = "capsule"
)
