package core

import (
	"valueexpert/cuda"
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

	// acc is the one launch accumulator, created by the first batch
	// analyzed and kept until Detach, so every launch reuses the
	// histograms earlier ones grew. Analyze and LaunchEnd run only on the
	// analysis goroutine, in FIFO order: a launch finalizes before the
	// next one's first batch arrives. launch is the launch whose batches
	// acc holds, nil once finalized; a launch Drain discarded never
	// reaches LaunchEnd, so the next launch's first batch resets what it
	// left.
	acc    *vpattern.FineAccumulator
	launch *fineLaunch
}

func newFineStage(env Env) *fineStage {
	return &fineStage{cfg: env.Cfg.FineConfig, regs: vpattern.FineDetectors(env.Patterns)}
}

func (s *fineStage) Name() string        { return "fine" }
func (s *fineStage) NeedsAccesses() bool { return true }
func (s *fineStage) batchOnly()          {}

// NeedsValues: compacted load-range records carry no element values of
// their own; the engine must capture them at flush time.
func (s *fineStage) NeedsValues() bool { return true }

func (s *fineStage) APIBegin(*cuda.APIEvent) {}
func (s *fineStage) APIEnd(*cuda.APIEvent)   {}

// fineLaunch names one instrumented launch; its values accumulate in the
// stage's accumulator.
type fineLaunch struct {
	s *fineStage
}

func (s *fineStage) LaunchBegin(string) LaunchAnalysis {
	return &fineLaunch{s: s}
}

// Analyze adds the batch straight into the stage's accumulator: a scalar
// record through Add, a compacted range record decoded once and ingested
// whole.
func (la *fineLaunch) Analyze(b *Batch) {
	s := la.s
	if s.launch != la {
		switch {
		case s.acc == nil:
			s.acc = vpattern.NewFineAccumulatorWith(s.cfg, s.regs)
		case s.launch != nil:
			s.acc.Reset() // the state of a launch Drain discarded
		}
		s.launch = la
	}
	acc := s.acc
	for i, a := range b.Recs {
		id := b.IDs[i]
		if id < 0 {
			continue
		}
		if a.Count <= 1 {
			acc.Add(id, a)
		} else if raws := acc.DecodeRange(a, b.RangeVal(i)); raws != nil {
			acc.AddRange(id, a, raws)
		}
	}
}

// LaunchEnd finalizes the launch's per-object pattern reports and resets
// the accumulator for the next launch. A launch no batch reached has
// nothing to report.
func (s *fineStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil || la.(*fineLaunch) != s.launch {
		return
	}
	for _, fr := range s.acc.Finalize() {
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
	s.acc.Reset()
	s.launch = nil
}

// release drops the accumulator; a profiler attached again creates a new
// one. Detach calls it once the analysis goroutine is idle.
func (s *fineStage) release() {
	s.acc, s.launch = nil, nil
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
