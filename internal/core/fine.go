package core

import (
	"math"
	"runtime"
	"sync"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/parallel"
	"valueexpert/internal/profile"
	"valueexpert/internal/vpattern"
)

// fineStage is the fine-grained analyzer (§5.1): it accumulates every
// instrumented access's value into per-object histograms, fans each
// access out to the enabled detectors that observe accesses (heavy type,
// structured, plus any out-of-tree observers), and finalizes every
// enabled detector (frequent, single value, single zero, approximate
// read only the histograms) at launch end. A detector disabled in
// Env.Patterns is never constructed, so it costs nothing at all.
type fineStage struct {
	cfg     vpattern.FineConfig
	regs    []vpattern.Registration
	records []profile.FineRecord

	// shards pools per-batch shard accumulators: a recycled shard Resets
	// in place (arena histograms and dense tables keep their
	// allocations), so the steady-state compact path allocates nothing.
	shards sync.Pool
	// chunks executes intra-batch sub-shard compaction; its width bounds
	// how many record ranges one large batch splits into.
	chunks *parallel.Pool
}

func newFineStage(env Env) *fineStage {
	s := &fineStage{
		cfg:    env.Cfg.FineConfig,
		regs:   vpattern.FineDetectors(env.Patterns),
		chunks: parallel.NewPool(0),
	}
	s.shards.New = func() any {
		cfg := s.cfg
		cfg.MaxTrackedValues = math.MaxInt
		return vpattern.NewFineAccumulatorWith(cfg, s.regs)
	}
	return s
}

// getShard leases an empty uncapped shard from the pool.
func (s *fineStage) getShard() *vpattern.FineAccumulator {
	return s.shards.Get().(*vpattern.FineAccumulator)
}

// putShard resets a shard — and any shards pre-combined into it — in
// place and returns them to the pool.
func (s *fineStage) putShard(sh *vpattern.FineAccumulator) {
	for _, p := range sh.TakePending() {
		s.putShard(p)
	}
	sh.Reset()
	s.shards.Put(sh)
}

func (s *fineStage) Name() string        { return "fine" }
func (s *fineStage) NeedsAccesses() bool { return true }

// NeedsValues: compacted load-range records carry no element values of
// their own; the engine must capture them at flush time.
func (s *fineStage) NeedsValues() bool { return true }

func (s *fineStage) APIBegin(*cuda.APIEvent) {}
func (s *fineStage) APIEnd(*cuda.APIEvent)   {}

// fineLaunch accumulates one instrumented launch's values.
type fineLaunch struct {
	st  *fineStage
	acc *vpattern.FineAccumulator
}

func (s *fineStage) LaunchBegin(string) LaunchAnalysis {
	return &fineLaunch{st: s, acc: vpattern.NewFineAccumulatorWith(s.cfg, s.regs)}
}

// fineChunkRecords is the record-range granularity of intra-batch chunked
// compaction: small enough that a 2-batch workload still spreads over
// several workers, large enough that sub-shard fold overhead stays noise.
const fineChunkRecords = 4096

// addMode selects which detector set one record walk feeds.
type addMode uint8

const (
	// modeFull is the sequential path: shared context + every detector.
	modeFull addMode = iota
	// modeAssoc feeds sub-shards: shared context + exactly-mergeable
	// detectors; the order-sensitive ones are fed by a later modeOrder
	// pass over the whole batch.
	modeAssoc
	// modeOrder is that sequential whole-batch pass: order-sensitive
	// detectors only.
	modeOrder
	// modeInline is the zero-worker path: modeAssoc into the launch
	// accumulator and modeOrder into a batch shard, in one walk.
	modeInline
)

// Compact accumulates the batch's values into an independent uncapped
// shard running the same detector lineup. The shard must not saturate:
// the master re-applies the configured cap during the in-order merge,
// reproducing global first-occurrence eviction exactly (see
// FineAccumulator.Merge).
//
// Large pipelined batches additionally chunk *within* the batch:
// record-range sub-shards compact concurrently on the parallel pool and
// fold into the batch shard in range order — bit-identical to the
// sequential walk, because the insertion-ordered fold reproduces the
// batch's first-occurrence order and only exactly-mergeable detectors
// participate (the order-sensitive ones observe the whole batch
// sequentially afterwards).
func (la *fineLaunch) Compact(b *Batch) Partial {
	st := la.st
	shard := st.getShard()
	n := len(b.Recs)
	if !b.Yield || st.chunks.Workers() <= 1 || n < 2*fineChunkRecords {
		addRecords(shard, nil, b, 0, n, modeFull)
		return shard
	}
	nChunks := (n + fineChunkRecords - 1) / fineChunkRecords
	subs := make([]*vpattern.FineAccumulator, nChunks)
	st.chunks.Run(nChunks, func(c int) {
		lo := c * fineChunkRecords
		hi := lo + fineChunkRecords
		if hi > n {
			hi = n
		}
		sub := st.getShard()
		addRecords(sub, nil, b, lo, hi, modeAssoc)
		subs[c] = sub
	})
	for _, sub := range subs {
		shard.FoldAssoc(sub)
		st.putShard(sub)
	}
	if shard.OrderSensitive() {
		addRecords(shard, nil, b, 0, n, modeOrder)
	}
	return shard
}

// analyzeInline implements inlineAnalysis: the shared context and the
// exactly-mergeable observers take the batch straight into the launch
// accumulator, which for them is what merging a shard of it reproduces.
// The order-sensitive observers still observe the batch into a shard
// that merges in, so their state stays the per-batch fold the pipelined
// engine builds.
func (la *fineLaunch) analyzeInline(b *Batch) {
	if !la.acc.OrderSensitive() {
		addRecords(la.acc, nil, b, 0, len(b.Recs), modeAssoc)
		return
	}
	shard := la.st.getShard()
	addRecords(la.acc, shard, b, 0, len(b.Recs), modeInline)
	la.acc.MergeOrderSensitive(shard)
	la.st.putShard(shard)
}

// addRecords walks records [lo, hi) and feeds each to dst (and, in
// modeInline, ord) under the given mode. A compacted range record is
// decoded once (into dst's scratch) and ingested whole.
func addRecords(dst, ord *vpattern.FineAccumulator, b *Batch, lo, hi int, mode addMode) {
	for i := lo; i < hi; i++ {
		if b.Yield && i%yieldStride == 0 {
			runtime.Gosched()
		}
		a := b.Recs[i]
		id := b.IDs[i]
		if id < 0 {
			continue
		}
		if a.Count <= 1 {
			addOne(dst, ord, mode, id, a)
		} else if raws := dst.DecodeRange(a, b.RangeVal(i)); raws != nil {
			addRange(dst, ord, mode, id, a, raws)
		}
	}
}

func addOne(dst, ord *vpattern.FineAccumulator, mode addMode, id int, a gpu.Access) {
	switch mode {
	case modeFull:
		dst.Add(id, a)
	case modeAssoc:
		dst.AddAssoc(id, a)
	case modeOrder:
		dst.ObserveOrderSensitive(id, a)
	default:
		dst.AddAssoc(id, a)
		ord.ObserveOrderSensitive(id, a)
	}
}

func addRange(dst, ord *vpattern.FineAccumulator, mode addMode, id int, a gpu.Access, raws []uint64) {
	switch mode {
	case modeFull:
		dst.AddRange(id, a, raws)
	case modeAssoc:
		dst.AddAssocRange(id, a, raws)
	case modeOrder:
		dst.ObserveOrderSensitiveRange(id, a, raws)
	default:
		dst.AddAssocRange(id, a, raws)
		ord.ObserveOrderSensitiveRange(id, a, raws)
	}
}

// Absorb merges a shard in flush order, re-applying the value cap, then
// recycles the shard (and anything pre-combined into it) to the pool.
func (la *fineLaunch) Absorb(pt Partial) {
	shard := pt.(*vpattern.FineAccumulator)
	la.acc.Merge(shard)
	la.st.putShard(shard)
}

// Combine pre-folds the next batch's shard into this one off the
// collector's critical path; non-associative detector state rides along
// and is replayed in flush order by Merge (see FineAccumulator.Combine).
func (la *fineLaunch) Combine(first, second Partial) Partial {
	a := first.(*vpattern.FineAccumulator)
	a.Combine(second.(*vpattern.FineAccumulator))
	return a
}

// LaunchEnd finalizes the launch's per-object pattern reports.
func (s *fineStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil {
		return
	}
	for _, fr := range la.(*fineLaunch).acc.Finalize() {
		rec := profile.FineRecord{
			Seq: ev.Seq, Kernel: ev.Name, ObjectID: fr.ObjectID,
			Accesses: fr.Accesses, Loads: fr.Loads, Stores: fr.Stores,
			Bytes: fr.Bytes, Distinct: fr.DistinctValues, Saturated: fr.Saturated,
		}
		for _, vc := range fr.TopValues {
			rec.TopValues = append(rec.TopValues, profile.ValueCount{
				Value: vc.Value.Format(), Count: vc.Count,
			})
		}
		for _, m := range fr.Patterns {
			rec.Patterns = append(rec.Patterns, profile.Pattern{
				Kind: m.Kind.String(), Fraction: m.Fraction, Detail: m.Detail,
			})
		}
		s.records = append(s.records, rec)
	}
}

// EvictObjects implements ObjectEvicter: fine records are per-object, so
// an evicted object's records drop wholesale.
func (s *fineStage) EvictObjects(dead map[int]bool) {
	kept := s.records[:0]
	for _, rec := range s.records {
		if !dead[rec.ObjectID] {
			kept = append(kept, rec)
		}
	}
	clear(s.records[len(kept):])
	s.records = kept
}

// Finish contributes the fine records.
func (s *fineStage) Finish(rep *profile.Report) {
	rep.Fine = append([]profile.FineRecord(nil), s.records...)
}
