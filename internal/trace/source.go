package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"valueexpert/cuda"
	"valueexpert/gpu"
)

// ErrStop stops a Scan early with a nil error.
var ErrStop = errors.New("trace: stop scan")

// Scan decodes a VXTR trace event by event and calls fn for each event.
// The Event (and its slices) passed to fn is reused between calls — copy
// what must outlive the callback. fn returning ErrStop ends the scan
// cleanly; any other error aborts it. A malformed trace — one that does
// not open with the VXTR magic, or is truncated — surfaces as a
// *FormatError.
func Scan(rd io.Reader, fn func(e *Event) error) error {
	br := bufio.NewReader(rd)
	// Skip leading whitespace: a remote-attach stream follows a JSON
	// handshake whose encoder terminates with a newline. The container
	// never starts with whitespace, so this cannot swallow trace bytes.
	for {
		b, err := br.ReadByte()
		if err != nil {
			break
		}
		if b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			br.UnreadByte()
			break
		}
	}
	r := newBinReader(br)
	for {
		e, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
}

// replayKernel is a gpu.Kernel that re-applies a recorded access stream:
// stores write their recorded values back into device memory, every
// record is surfaced to the instrumentation hook, and the recorded
// execution counters drive the cost model.
type replayKernel struct {
	name string
	recs []gpu.Access
	ctrs gpu.LaunchCounters
}

func (k *replayKernel) KernelName() string                     { return k.name }
func (k *replayKernel) AccessTypes() map[gpu.PC]gpu.AccessType { return nil }
func (k *replayKernel) LineMapping() map[gpu.PC]gpu.SrcLine    { return nil }

func (k *replayKernel) Execute(dev *gpu.Device, _, _ gpu.Dim3, hook gpu.AccessFunc, blockFilter func(int32) bool, ctr *gpu.LaunchCounters) error {
	for _, a := range k.recs {
		if a.Store {
			raw := a.Raw
			for i := 0; i < a.Elems(); i++ {
				if err := dev.Mem.StoreRaw(a.Addr+uint64(i)*uint64(a.Size), a.Size, raw); err != nil {
					return fmt.Errorf("trace: replay store: %w", err)
				}
			}
		}
		if hook != nil && (blockFilter == nil || blockFilter(a.Block)) {
			hook(a)
		}
	}
	*ctr = k.ctrs
	return nil
}

// Replayer re-executes decoded events against a runtime, reconstructing
// device memory and the instrumented access stream. It owns the replay
// scratch state (the device-to-host bounce buffer is grown once and
// reused, not allocated per copy).
type Replayer struct {
	rt  *cuda.Runtime
	d2h []byte
}

// NewReplayer creates a replayer applying events to rt.
func NewReplayer(rt *cuda.Runtime) *Replayer { return &Replayer{rt: rt} }

// Runtime returns the runtime events are applied to.
func (rp *Replayer) Runtime() *cuda.Runtime { return rp.rt }

// Apply re-executes one event, with its recorded host frames pushed so
// captured call paths match the original run.
func (rp *Replayer) Apply(e *Event) error {
	for _, f := range e.Frames {
		rp.rt.PushFrame(f)
	}
	err := rp.applyEvent(e)
	for range e.Frames {
		rp.rt.PopFrame()
	}
	return err
}

func (rp *Replayer) applyEvent(e *Event) error {
	rt := rp.rt
	switch e.Kind {
	case kindMalloc:
		p, err := rt.Malloc(e.Bytes, e.Tag)
		if err != nil {
			return err
		}
		if uint64(p) != e.Dst {
			return fmt.Errorf("allocator divergence: got %#x, recorded %#x", uint64(p), e.Dst)
		}
		return nil
	case kindFree:
		return rt.Free(cuda.DevPtr(e.Dst))
	case kindMemset:
		return rt.Memset(cuda.DevPtr(e.Dst), e.MemsetV, e.Bytes)
	case kindMemcpy:
		switch gpu.CopyKind(e.CopyKind) {
		case gpu.CopyHostToDevice:
			return rt.MemcpyH2D(cuda.DevPtr(e.Dst), e.HostSrc)
		case gpu.CopyDeviceToHost:
			// The copied-out bytes are discarded on replay; bound the
			// scratch by the live allocation so a corrupt length cannot
			// force a huge buffer (one byte past the end reproduces the
			// original overrun error).
			n := e.Bytes
			if a := rt.Device().Mem.Lookup(e.Src); a == nil {
				n = 0
			} else if avail := a.End() - e.Src; n > avail {
				n = avail + 1
			}
			if uint64(cap(rp.d2h)) < n {
				rp.d2h = make([]byte, n)
			}
			return rt.MemcpyD2H(rp.d2h[:n], cuda.DevPtr(e.Src))
		default:
			return rt.MemcpyD2D(cuda.DevPtr(e.Dst), cuda.DevPtr(e.Src), e.Bytes)
		}
	case kindLaunch:
		k := &replayKernel{name: e.Name, recs: e.Accesses, ctrs: e.Counters}
		grid := gpu.Dim3{X: e.Grid[0], Y: e.Grid[1], Z: e.Grid[2]}
		block := gpu.Dim3{X: e.Block[0], Y: e.Block[1], Z: e.Block[2]}
		return rt.Launch(k, grid, block)
	case kindAllocAt:
		p, err := rt.MallocAt(e.ObjID, e.Dst, e.Bytes, e.Tag)
		if err != nil {
			return err
		}
		if uint64(p) != e.Dst {
			return fmt.Errorf("allocator divergence: got %#x, recorded %#x", uint64(p), e.Dst)
		}
		return nil
	case kindRestore:
		// A restore is a pure memory-image write, not an API event: it
		// reconstructs pre-launch bytes without the profiler observing a
		// copy that never happened in the original run.
		return rt.Device().Mem.Write(e.Dst, e.HostSrc)
	}
	return fmt.Errorf("unknown event kind %q", e.Kind)
}

// Source replays a recorded trace as a cuda.EventSource: the offline
// counterpart of cuda.LiveSource. Allocation order is replayed exactly,
// so object IDs and device addresses match the recording, and any
// consumer attached to Runtime() before Run observes the same stream the
// live program produced.
type Source struct {
	rp      *Replayer
	rd      io.Reader
	capsule *CapsuleInfo
}

// NewSource creates a replay source reading the trace from rd into a
// fresh runtime simulating prof.
func NewSource(rd io.Reader, prof gpu.Profile) *Source {
	return NewSourceOn(rd, cuda.NewRuntime(prof))
}

// NewSourceOn creates a replay source reading the trace from rd into an
// existing runtime. This is the remote-attach seam: a daemon session
// owns a cancelable runtime, and the trace arriving over the attach
// socket replays into it exactly as a live program would execute, so
// the session's profiler cannot tell a remote stream from a local run.
func NewSourceOn(rd io.Reader, rt *cuda.Runtime) *Source {
	return &Source{rp: NewReplayer(rt), rd: rd}
}

// Runtime implements cuda.EventSource.
func (s *Source) Runtime() *cuda.Runtime { return s.rp.rt }

// Capsule returns the capsule metadata if the replayed trace was a
// kernel capsule (available once Run has passed the metadata chunk,
// which capsules place first).
func (s *Source) Capsule() *CapsuleInfo { return s.capsule }

// Run implements cuda.EventSource by re-executing the recorded stream.
func (s *Source) Run() error {
	i := -1
	return Scan(s.rd, func(e *Event) error {
		i++
		if e.Kind == kindCapsule {
			s.capsule = e.Capsule
			return nil
		}
		if err := s.rp.Apply(e); err != nil {
			return fmt.Errorf("trace: replay event %d (%s %s): %w", i, e.Kind, e.Name, err)
		}
		return nil
	})
}

// Replay re-executes a recorded trace against a fresh runtime with the
// given interceptor-style consumer attached before the stream starts.
// attach receives the runtime (e.g. to attach a profiler) and runs before
// the first event.
func Replay(rd io.Reader, prof gpu.Profile, attach func(rt *cuda.Runtime)) error {
	src := NewSource(rd, prof)
	if attach != nil {
		attach(src.Runtime())
	}
	return src.Run()
}
