package core

import (
	"valueexpert/cuda"
	"valueexpert/internal/profile"
	"valueexpert/internal/reuse"
)

// reuseStage computes per-kernel reuse-distance histograms from the
// instrumented access stream — the follow-on analysis the paper's
// conclusion proposes offloading onto this measurement pipeline.
type reuseStage struct {
	records []profile.ReuseRecord
}

func newReuseStage(Env) *reuseStage { return &reuseStage{} }

func (s *reuseStage) Name() string        { return "reuse-distance" }
func (s *reuseStage) NeedsAccesses() bool { return true }
func (s *reuseStage) NeedsValues() bool   { return false }
func (s *reuseStage) batchOnly()          {}

func (s *reuseStage) APIBegin(*cuda.APIEvent) {}
func (s *reuseStage) APIEnd(*cuda.APIEvent)   {}

// reuseLaunch accumulates one launch's cache-line touch sequence.
type reuseLaunch struct {
	an *reuse.Analyzer
}

func (s *reuseStage) LaunchBegin(string) LaunchAnalysis {
	return &reuseLaunch{an: reuse.NewAnalyzer()}
}

// Analyze touches every cache line each record covers exactly once, in
// record order, with the start aligned down to a line boundary so records
// straddling lines neither miss their trailing line nor double-count.
func (la *reuseLaunch) Analyze(b *Batch) {
	const mask = ^uint64(reuse.LineSize - 1)
	for _, a := range b.Recs {
		if a.Bytes() == 0 {
			continue
		}
		first := a.Addr & mask
		last := (a.Addr + a.Bytes() - 1) & mask
		for line := first; line <= last; line += reuse.LineSize {
			la.an.Touch(line)
		}
	}
}

// LaunchEnd emits the launch's histogram.
func (s *reuseStage) LaunchEnd(ev *cuda.APIEvent, la LaunchAnalysis) {
	if la == nil {
		return
	}
	h := la.(*reuseLaunch).an.Histogram()
	s.records = append(s.records, profile.ReuseRecord{
		Seq: ev.Seq, Kernel: ev.Name,
		Accesses: h.Total, ColdMisses: h.Cold,
		Buckets:       append([]uint64(nil), h.Buckets[:]...),
		L1HitFraction: h.HitFraction(4 << 10),
		L2HitFraction: h.HitFraction(128 << 10),
	})
}

// Finish contributes the reuse records.
func (s *reuseStage) Finish(rep *profile.Report) {
	rep.Reuse = append([]profile.ReuseRecord(nil), s.records...)
}
