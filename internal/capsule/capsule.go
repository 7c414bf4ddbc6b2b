// Package capsule extracts one kernel launch plus its minimal reachable
// device memory from a recorded trace into a self-contained artifact —
// the Kerncap idea. A capsule is an ordinary trace container (either
// encoding) whose event stream is: a capsule-metadata chunk, one
// alloc_at per data object the launch touches (pinning the original
// allocation ID, address, tag, and allocating call path), restore events
// carrying the pre-launch bytes of exactly the touched ranges, and the
// launch itself. Replaying it through trace.Source re-profiles the
// launch in isolation; with the same analysis configuration, the report
// is byte-identical to that launch's slice of the full-trace profile
// (Slice), which is what makes capsules usable as trace-store dedup
// units and CI-replayable perf repros.
package capsule

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/profile"
	"valueexpert/internal/trace"
)

// LaunchInfo describes one launch of a scanned trace.
type LaunchInfo struct {
	Index   int    // zero-based launch index
	Seq     int    // API sequence number in the trace
	Kernel  string // kernel name
	Records int    // recorded access records
}

// Launches enumerates a trace's kernel launches without replaying it.
func Launches(rd io.Reader) ([]LaunchInfo, error) {
	var out []LaunchInfo
	err := trace.Scan(rd, func(e *trace.Event) error {
		if e.Kind == "launch" {
			out = append(out, LaunchInfo{
				Index: len(out), Seq: e.Seq, Kernel: e.Name, Records: len(e.Accesses),
			})
		}
		return nil
	})
	return out, err
}

// ExtractOptions configure Extract.
type ExtractOptions struct {
	// Device is the device profile the trace was recorded on (the capsule
	// replays allocator decisions, so it must match the recording).
	Device gpu.Profile
	// Program names the application for the capsule metadata and report.
	Program string
}

// span is a half-open touched byte range.
type span struct{ lo, hi uint64 }

// Extract replays tr up to (not including) launchIndex, computes the
// minimal reachable memory — the byte ranges that launch's access
// records touch, reconstructed from the prior malloc/memset/memcpy/store
// effects — and writes a self-contained capsule to w.
func Extract(tr io.Reader, launchIndex int, w io.Writer, opt ExtractOptions) (*trace.CapsuleInfo, error) {
	if launchIndex < 0 {
		return nil, fmt.Errorf("capsule: launch index %d out of range", launchIndex)
	}
	rt := cuda.NewRuntime(opt.Device)
	rp := trace.NewReplayer(rt)

	// The allocating call path travels with each alloc_at so the capsule
	// report attributes objects exactly as the full profile does.
	mallocFrames := make(map[uint64][]callpath.Frame)
	var launch *trace.Event
	idx := -1
	err := trace.Scan(tr, func(e *trace.Event) error {
		switch e.Kind {
		case "capsule":
			return fmt.Errorf("capsule: trace is already a capsule (of %s launch %d)",
				e.Capsule.Program, e.Capsule.LaunchIndex)
		case "launch":
			idx++
			if idx == launchIndex {
				launch = cloneEvent(e)
				return trace.ErrStop
			}
		}
		if err := rp.Apply(e); err != nil {
			return fmt.Errorf("capsule: replaying event %d (%s %s): %w", e.Seq, e.Kind, e.Name, err)
		}
		if e.Kind == "malloc" {
			mallocFrames[e.Dst] = append([]callpath.Frame(nil), e.Frames...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if launch == nil {
		return nil, fmt.Errorf("capsule: launch index %d out of range (trace has %d launches)",
			launchIndex, idx+1)
	}

	// Group the launch's touched ranges by allocation; merging stays
	// within an allocation so adjacent objects are never conflated.
	mem := rt.Device().Mem
	touched := make(map[int][]span)
	var allocs []*gpu.Allocation
	for i := range launch.Accesses {
		rec := &launch.Accesses[i]
		nbytes := rec.Bytes()
		if nbytes == 0 {
			continue
		}
		a := mem.Lookup(rec.Addr)
		if a == nil {
			return nil, fmt.Errorf("capsule: launch %d (%s) access to unmapped address %#x",
				launchIndex, launch.Name, rec.Addr)
		}
		hi := rec.Addr + nbytes
		if hi > a.End() {
			hi = a.End()
		}
		if _, seen := touched[a.ID]; !seen {
			allocs = append(allocs, a)
		}
		touched[a.ID] = append(touched[a.ID], span{rec.Addr, hi})
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].Addr < allocs[j].Addr })

	info := &trace.CapsuleInfo{
		Program:     opt.Program,
		Device:      opt.Device.Name,
		LaunchSeq:   launch.Seq,
		LaunchIndex: launchIndex,
	}
	for _, a := range allocs {
		info.ObjectIDs = append(info.ObjectIDs, a.ID)
	}

	tw := trace.NewWriter(w)
	if err := tw.WriteEvent(&trace.Event{Kind: "capsule", Capsule: info}); err != nil {
		return nil, err
	}
	for _, a := range allocs {
		if a.ID != 0 { // the shared window exists on every device; restore only
			ev := trace.Event{
				Kind: "alloc_at", Name: "cudaMalloc",
				ObjID: a.ID, Dst: a.Addr, Bytes: a.Size, Tag: a.Tag,
				Frames: mallocFrames[a.Addr],
			}
			if err := tw.WriteEvent(&ev); err != nil {
				return nil, err
			}
		}
		for _, s := range mergeSpans(touched[a.ID]) {
			data := make([]byte, s.hi-s.lo)
			if err := mem.Read(s.lo, data); err != nil {
				return nil, fmt.Errorf("capsule: snapshot [%#x,+%d): %w", s.lo, s.hi-s.lo, err)
			}
			ev := trace.Event{Kind: "restore", Name: "restore", Dst: s.lo, Bytes: uint64(len(data)), HostSrc: data}
			if err := tw.WriteEvent(&ev); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.WriteEvent(launch); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return info, nil
}

// mergeSpans coalesces overlapping or adjacent ranges.
func mergeSpans(spans []span) []span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	out := spans[:0]
	for _, s := range spans {
		if n := len(out); n > 0 && s.lo <= out[n-1].hi {
			if s.hi > out[n-1].hi {
				out[n-1].hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// cloneEvent deep-copies a scanned event (Scan reuses its buffers).
func cloneEvent(e *trace.Event) *trace.Event {
	cp := *e
	cp.Frames = append([]callpath.Frame(nil), e.Frames...)
	cp.Accesses = append([]gpu.Access(nil), e.Accesses...)
	cp.HostSrc = append([]byte(nil), e.HostSrc...)
	return &cp
}

// ReadInfo decodes a capsule's metadata without replaying it.
func ReadInfo(rd io.Reader) (*trace.CapsuleInfo, error) {
	var info *trace.CapsuleInfo
	err := trace.Scan(rd, func(e *trace.Event) error {
		if e.Kind == "capsule" {
			ci := *e.Capsule
			ci.ObjectIDs = append([]int(nil), e.Capsule.ObjectIDs...)
			info = &ci
		}
		return trace.ErrStop // metadata is the first chunk
	})
	if err != nil {
		return nil, err
	}
	if info == nil {
		return nil, fmt.Errorf("capsule: trace is not a capsule (no metadata chunk)")
	}
	return info, nil
}

// Reprofile replays a capsule in isolation and returns its report with
// the launch renumbered back to its sequence in the original trace, so
// the records line up with the full-trace profile. Snapshot-based
// analyses (Coarse) are forced off: a capsule restores only the bytes
// the launch touches, not whole-object images, so per-record analyses
// (Fine, reuse distance) are the meaningful — and byte-identical —
// dimensions. For Slice equivalence, cfg must otherwise match the
// full-trace profile's configuration (BufferRecords included: flush
// boundaries shape fine-value saturation) and must not sample away the
// launch.
func Reprofile(data []byte, cfg core.Config) (*profile.Report, *trace.CapsuleInfo, error) {
	info, err := ReadInfo(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	dev, err := gpu.ProfileByName(info.Device)
	if err != nil {
		return nil, nil, fmt.Errorf("capsule: %w", err)
	}
	cfg.Coarse = false
	if cfg.Program == "" {
		cfg.Program = info.Program
	}
	p, err := core.Profile(trace.NewSource(bytes.NewReader(data), dev), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("capsule: replay: %w", err)
	}
	rep := p.Report()
	// The capsule numbers its own API stream from 1; restore the
	// original trace's launch sequence.
	for i := range rep.Fine {
		rep.Fine[i].Seq = info.LaunchSeq
	}
	for i := range rep.Reuse {
		rep.Reuse[i].Seq = info.LaunchSeq
	}
	// Wall-clock and whole-run statistics are meaningless for a
	// one-launch replay; zero them so reports compare structurally.
	rep.Stats = profile.RunStats{}
	rep.Overhead = nil
	return rep, info, nil
}

// Slice reduces a full-trace report to the view a capsule of that launch
// reproduces: the touched objects, the per-launch record dimensions
// (fine values, reuse distance) at the capsule's launch sequence, and no
// whole-run sections (coarse snapshots, duplicate groups, run stats).
// Reprofile of a capsule and Slice of the full report are byte-identical
// when both ran the same analysis configuration.
func Slice(full *profile.Report, info *trace.CapsuleInfo) *profile.Report {
	ids := make(map[int]bool, len(info.ObjectIDs))
	for _, id := range info.ObjectIDs {
		ids[id] = true
	}
	out := &profile.Report{
		Tool:            full.Tool,
		Device:          full.Device,
		Program:         full.Program,
		EnabledPatterns: full.EnabledPatterns,
	}
	for _, o := range full.Objects {
		if ids[o.ID] {
			out.Objects = append(out.Objects, o)
		}
	}
	for _, f := range full.Fine {
		if f.Seq == info.LaunchSeq {
			out.Fine = append(out.Fine, f)
		}
	}
	for _, r := range full.Reuse {
		if r.Seq == info.LaunchSeq {
			out.Reuse = append(out.Reuse, r)
		}
	}
	return out
}
