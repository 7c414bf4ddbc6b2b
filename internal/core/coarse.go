package core

import (
	"bytes"
	"time"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/interval"
	"valueexpert/internal/profile"
	"valueexpert/internal/telemetry"
	"valueexpert/internal/vflow"
	"valueexpert/internal/vpattern"
)

// coarseStage is the coarse-grained analyzer (§5.1): it maintains each
// data object's host-side value snapshot, diffs written ranges to find
// redundant and duplicate values, and builds the program-wide value flow
// graph across API invocations.
type coarseStage struct {
	rt     *cuda.Runtime
	cfg    *Config
	tree   *callpath.Tree
	graph  *vflow.Graph
	merger *interval.Merger
	dup    *vpattern.DuplicateTracker

	// redundant/duplicate gate the two coarse-grained patterns on the
	// registry's enabled set: with both off, no snapshots are kept and no
	// diffing or hashing runs — only byte accounting and the flow graph.
	redundant bool
	duplicate bool

	// snapshots maintains each data object's value snapshot on the host
	// (§5.1: "a data object's value snapshot ... is maintained on the CPU
	// to reduce the GPU memory consumption").
	snapshots map[int][]byte

	// defined tracks, per object, the byte ranges written at least once
	// since allocation. cudaMalloc memory is undefined, so a first write
	// is never redundant; only bytes with a defined previous value count
	// toward the unchanged fraction.
	defined map[int][]interval.Interval

	records []profile.CoarseRecord

	// launch is the per-launch accumulator LaunchBegin resets and hands
	// out; see coarseLaunch.
	launch coarseLaunch

	snapshotTime time.Duration

	// Telemetry probes (nil/no-op when self-observation is off): host
	// wall time spent in the fused diff-and-copy refresh pass, and copy
	// traffic attributed to the concrete strategy each plan resolved to.
	refreshTimer *telemetry.Timer
	copyBytes    [interval.AdaptiveCopy + 1]*telemetry.Counter
	copyCalls    [interval.AdaptiveCopy + 1]*telemetry.Counter
}

func newCoarseStage(env Env) *coarseStage {
	s := &coarseStage{
		rt:        env.RT,
		cfg:       env.Cfg,
		tree:      env.Tree,
		graph:     env.Graph,
		merger:    interval.NewMerger(0),
		dup:       vpattern.NewDuplicateTracker(),
		redundant: env.Patterns.Enabled(vpattern.RedundantValues),
		duplicate: env.Patterns.Enabled(vpattern.DuplicateValues),
		snapshots: make(map[int][]byte),
		defined:   make(map[int][]interval.Interval),
	}
	s.refreshTimer = env.Tel.Timer("snapshot.refresh")
	if env.Tel != nil {
		// Adaptive plans resolve to min-max or segment, so only the three
		// concrete strategies accumulate traffic; create the configured
		// strategy's keys eagerly so the export names it even when unused.
		for _, st := range []interval.CopyStrategy{interval.DirectCopy, interval.MinMaxCopy, interval.SegmentCopy} {
			s.copyBytes[st] = env.Tel.Counter("snapshot.copy_bytes." + st.String())
			s.copyCalls[st] = env.Tel.Counter("snapshot.copy_calls." + st.String())
		}
	}
	s.merger.SetProbes(interval.MergeProbes{
		Time:   env.Tel.Timer("merge.time"),
		Input:  env.Tel.Counter("merge.input_intervals"),
		Output: env.Tel.Counter("merge.output_intervals"),
	})
	return s
}

func (s *coarseStage) Name() string        { return "coarse" }
func (s *coarseStage) NeedsAccesses() bool { return true }
func (s *coarseStage) NeedsValues() bool   { return false }

func (s *coarseStage) objectAt(addr uint64) int {
	if a := s.rt.Device().Mem.Lookup(addr); a != nil {
		return a.ID
	}
	return -1
}

// APIBegin handles frees while the allocation is still addressable.
func (s *coarseStage) APIBegin(ev *cuda.APIEvent) {
	if ev.Kind == cuda.APIFree {
		if id := s.objectAt(ev.Dst); id >= 0 {
			delete(s.snapshots, id)
			delete(s.defined, id)
			s.dup.Free(id)
		}
	}
}

// APIEnd is the coarse analyzer's per-API work for non-launch events.
func (s *coarseStage) APIEnd(ev *cuda.APIEvent) {
	switch ev.Kind {
	case cuda.APIMalloc:
		s.onMalloc(ev)
	case cuda.APIMemset:
		s.onMemset(ev)
	case cuda.APIMemcpy:
		s.onMemcpy(ev)
	}
}

func (s *coarseStage) onMalloc(ev *cuda.APIEvent) {
	a := s.rt.Device().Mem.Lookup(ev.Dst)
	if a == nil {
		return
	}
	v := s.graph.Touch(vflow.KindAlloc, a.Tag, ev.Frames)
	s.graph.RecordAlloc(v, a.ID)
	if s.redundant || s.duplicate {
		snap := make([]byte, a.Size)
		copy(snap, a.Data)
		s.snapshots[a.ID] = snap
	}
}

// refreshSnapshot diffs the object's stored snapshot against current
// device contents over the written intervals and updates the snapshot
// over the configured copy strategy's plan, in one pass, charging the
// simulated copy cost of the whole plan.
func (s *coarseStage) refreshSnapshot(objID int, written []interval.Interval) vpattern.DiffResult {
	mem := s.rt.Device().Mem
	a := mem.LookupID(objID)
	snap := s.snapshots[objID]
	if a == nil || !a.Live || snap == nil {
		// No snapshot is kept when both coarse patterns are disabled;
		// written bytes still feed the flow graph's traffic accounting.
		if a != nil && a.Live && !s.redundant && !s.duplicate {
			return vpattern.DiffResult{WrittenBytes: interval.TotalBytes(written)}
		}
		return vpattern.DiffResult{}
	}
	// Diff only over bytes whose previous value is defined; the rest of
	// the written range counts as changed (first touch).
	var diffable []interval.Interval
	if s.redundant {
		diffable = interval.Intersect(written, s.defined[objID])
		s.defined[objID] = interval.Union(s.defined[objID], written)
	}

	obj := interval.Interval{Start: a.Addr, End: a.End()}
	prof := s.rt.Device().Prof
	plan, resolved := interval.PlanCopy(prof, s.cfg.CopyStrategy, obj, written)
	s.snapshotTime += interval.PlanCost(prof, plan)
	s.copyCalls[resolved].Add(uint64(len(plan)))
	s.copyBytes[resolved].Add(interval.TotalBytes(plan))
	sw := s.refreshTimer.Start()
	d, changed := vpattern.Refresh(s.merger.Pool(), snap, a.Data, a.Addr, plan, diffable)
	sw.Stop()
	// An unchanged snapshot leaves the object's duplicate group as it
	// was, so a tracker that has seen the object needs no new look.
	if s.duplicate && (changed || !s.dup.Tracks(objID)) {
		s.dup.Observe(objID, snap)
	}
	return vpattern.DiffResult{WrittenBytes: interval.TotalBytes(written), UnchangedBytes: d.UnchangedBytes}
}

func (s *coarseStage) onMemset(ev *cuda.APIEvent) {
	objID := s.objectAt(ev.Dst)
	if objID < 0 {
		return
	}
	written := []interval.Interval{{Start: ev.Dst, End: ev.Dst + ev.Bytes}}
	diff := s.refreshSnapshot(objID, written)
	v := s.graph.Touch(vflow.KindMemset, ev.Name, ev.Frames)
	s.graph.RecordWrite(v, objID, diff.WrittenBytes, diff.UnchangedBytes)
	s.graph.AddTime(v, ev.Duration)
	s.appendRecord(ev, []profile.ObjectAccess{{
		ObjectID: objID, WrittenBytes: diff.WrittenBytes,
		UnchangedBytes: diff.UnchangedBytes, Redundant: diff.Redundant(),
	}})
}

func (s *coarseStage) onMemcpy(ev *cuda.APIEvent) {
	var accesses []profile.ObjectAccess
	v := s.graph.Touch(vflow.KindMemcpy, ev.Name, ev.Frames)
	s.graph.AddTime(v, ev.Duration)

	switch ev.CopyKind {
	case gpu.CopyHostToDevice:
		objID := s.objectAt(ev.Dst)
		if objID < 0 {
			return
		}
		written := []interval.Interval{{Start: ev.Dst, End: ev.Dst + ev.Bytes}}
		diff := s.refreshSnapshot(objID, written)
		// A copy of uniform host bytes is the "use cudaMemset instead"
		// inefficiency even on first touch; mark the edge redundant so the
		// value flow graph paints it red (Darknet Inefficiency II). This is
		// a redundant-values finding, so it obeys that pattern's gate.
		uniform := s.redundant && uniformBytes(ev.HostSrc)
		redundantBytes := diff.UnchangedBytes
		if uniform && ev.Bytes > 0 {
			redundantBytes = diff.WrittenBytes
		}
		s.graph.RecordWrite(v, objID, diff.WrittenBytes, redundantBytes)
		accesses = append(accesses, profile.ObjectAccess{
			ObjectID: objID, WrittenBytes: diff.WrittenBytes,
			UnchangedBytes: diff.UnchangedBytes, Redundant: diff.Redundant(),
			UniformCopy: uniform && ev.Bytes > 0,
		})
	case gpu.CopyDeviceToHost:
		objID := s.objectAt(ev.Src)
		if objID < 0 {
			return
		}
		s.graph.RecordRead(v, objID, ev.Bytes)
		s.graph.RecordHostSink(objID, ev.Bytes)
		accesses = append(accesses, profile.ObjectAccess{ObjectID: objID, ReadBytes: ev.Bytes})
	case gpu.CopyDeviceToDevice:
		srcID, dstID := s.objectAt(ev.Src), s.objectAt(ev.Dst)
		if srcID >= 0 {
			s.graph.RecordRead(v, srcID, ev.Bytes)
			accesses = append(accesses, profile.ObjectAccess{ObjectID: srcID, ReadBytes: ev.Bytes})
		}
		if dstID >= 0 {
			written := []interval.Interval{{Start: ev.Dst, End: ev.Dst + ev.Bytes}}
			diff := s.refreshSnapshot(dstID, written)
			s.graph.RecordWrite(v, dstID, diff.WrittenBytes, diff.UnchangedBytes)
			accesses = append(accesses, profile.ObjectAccess{
				ObjectID: dstID, WrittenBytes: diff.WrittenBytes,
				UnchangedBytes: diff.UnchangedBytes, Redundant: diff.Redundant(),
			})
		}
	}
	s.appendRecord(ev, accesses)
}

// coarseLaunch accumulates one instrumented launch per data object. The
// stage owns one and reuses it for every launch: coarse Analyze and
// LaunchEnd run on the kernel goroutine and launches are serialized, so
// LaunchBegin resets it in place and a warmed Analyze allocates nothing.
type coarseLaunch struct {
	objs vpattern.Table[coarseObj]
}

// coarseObj is one object's share of a launch: its coalesced store runs,
// merged at LaunchEnd, and the bytes its loads read. Load runs hold a run
// slot while open (see Analyze) but their intervals are not kept: the
// written bytes come from the merged store runs.
type coarseObj struct {
	writes []interval.Interval
	readB  uint64
}

// clear empties the state keeping the write runs' allocation.
func (o *coarseObj) clear() { *o = coarseObj{writes: o.writes[:0]} }

func (s *coarseStage) LaunchBegin(string) LaunchAnalysis {
	s.launch.objs.Reset((*coarseObj).clear)
	return &s.launch
}

// activeRun is an open coalescing run for one (object, op) pair.
type activeRun struct {
	id    int
	store bool
	iv    interval.Interval
	valid bool
}

// Analyze performs warp-style compaction of the batch's intervals per
// (object, operation) pair. Consecutive records overwhelmingly hit the
// same data object at adjacent addresses (coalesced warps), so compaction
// is a linear pass that extends open runs — the cheap, GPU-friendly
// processing §6.1 implements with warp shuffle primitives — with the
// final parallel merge cleaning up whatever disorder remains. Runs and
// counters go straight into the launch accumulator.
func (la *coarseLaunch) Analyze(b *Batch) {
	// A handful of open runs covers the access interleavings real kernels
	// produce (a few operands per loop body).
	var runs [6]activeRun
	flush := func(r *activeRun) {
		if r.valid && r.store {
			o := la.objs.Get(r.id)
			o.writes = append(o.writes, r.iv)
		}
		r.valid = false
	}

	for _, a := range b.Recs {
		id := int(a.Obj)
		if id < 0 {
			continue // outside every allocation
		}
		iv := interval.FromAccess(a)
		if o, _ := la.objs.At(id); !a.Store {
			o.readB += a.Bytes()
		}

		// Extend an open run if the access touches or overlaps it.
		merged := false
		free := -1
		for s := range runs {
			r := &runs[s]
			if !r.valid {
				if free < 0 {
					free = s
				}
				continue
			}
			if r.id == id && r.store == a.Store && iv.Start <= r.iv.End && iv.End >= r.iv.Start {
				if iv.End > r.iv.End {
					r.iv.End = iv.End
				}
				if iv.Start < r.iv.Start {
					r.iv.Start = iv.Start
				}
				merged = true
				break
			}
		}
		if !merged {
			if free < 0 {
				// Evict the first run (oldest heuristic).
				flush(&runs[0])
				free = 0
			}
			runs[free] = activeRun{id: id, store: a.Store, iv: iv, valid: true}
		}
	}
	for s := range runs {
		flush(&runs[s])
	}
}

// LaunchEnd finalizes a launch: the "data processing kernel" runs the
// parallel interval merge over each written object's accumulated
// intervals, snapshots are refreshed over the merged ranges, and the
// kernel's graph vertex and coarse record are emitted.
func (s *coarseStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	v := s.graph.Touch(vflow.KindKernel, ev.Name, ev.Frames)
	s.graph.AddTime(v, ev.Duration)
	if la == nil {
		// Launch filtered or sampled out: record presence only.
		return
	}
	objs := &la.(*coarseLaunch).objs
	var accesses []profile.ObjectAccess
	for _, id := range objs.IDs() {
		if id == 0 {
			continue // shared memory: per-kernel scratch, no global flow
		}
		o := objs.Get(id)
		if o.readB > 0 {
			s.graph.RecordRead(v, id, o.readB)
		}
		var diff vpattern.DiffResult
		if len(o.writes) > 0 {
			merged := s.merger.MergeParallel(o.writes)
			diff = s.refreshSnapshot(id, merged)
			s.graph.RecordWrite(v, id, diff.WrittenBytes, diff.UnchangedBytes)
		}
		if o.readB > 0 || diff.WrittenBytes > 0 {
			accesses = append(accesses, profile.ObjectAccess{
				ObjectID: id, ReadBytes: o.readB,
				WrittenBytes:   diff.WrittenBytes,
				UnchangedBytes: diff.UnchangedBytes,
				Redundant:      diff.Redundant(),
			})
		}
	}
	s.appendRecord(ev, accesses)
}

func (s *coarseStage) appendRecord(ev *cuda.APIEvent, accesses []profile.ObjectAccess) {
	ctx := s.tree.Intern(ev.Frames)
	s.records = append(s.records, profile.CoarseRecord{
		Seq: ev.Seq, API: ev.Kind.String(), Name: ev.Name,
		CallPath: s.tree.Format(ctx), Duration: ev.Duration, Objects: accesses,
	})
}

// EvictObjects implements ObjectEvicter: coarse records drop the evicted
// objects' access entries (records that carried only evicted objects are
// dropped entirely; originally access-free records — unprofiled launches
// — stay), and the duplicate tracker forgets them. Snapshots and defined
// ranges were already released when the objects were freed.
func (s *coarseStage) EvictObjects(dead map[int]bool) {
	kept := s.records[:0]
	for _, rec := range s.records {
		if len(rec.Objects) > 0 {
			objs := rec.Objects[:0]
			for _, oa := range rec.Objects {
				if !dead[oa.ObjectID] {
					objs = append(objs, oa)
				}
			}
			rec.Objects = objs
			if len(objs) == 0 {
				continue
			}
		}
		kept = append(kept, rec)
	}
	clear(s.records[len(kept):])
	s.records = kept
	s.dup.Evict(dead)
}

// Finish contributes the coarse records and duplicate groups.
func (s *coarseStage) Finish(rep *profile.Report) {
	rep.Coarse = append([]profile.CoarseRecord(nil), s.records...)
	rep.DuplicateGroups = s.dup.EverGroups()
}

// uniformBytes reports whether b is non-empty and all its bytes share
// one value: every byte equals its successor.
func uniformBytes(b []byte) bool {
	return len(b) > 0 && bytes.Equal(b[1:], b[:len(b)-1])
}
