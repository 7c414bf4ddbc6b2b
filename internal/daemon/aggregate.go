// The process-level aggregate: a deterministic fold over finalized
// session reports. Fold is a pure function of the (id, report) pairs —
// sums, weighted means computed in sorted-ID order, and sorted unions —
// so the aggregate of N sessions profiled concurrently is byte-identical
// to the aggregate of the same N profiles produced one-shot and folded
// sequentially; the concurrency test relies on exactly this.
package daemon

import (
	"sort"

	"valueexpert/internal/profile"
)

// PatternTotal combines every session's fine-grained records for one
// pattern kind — the report-level analog of the engine's partial
// Combine: counts and bytes are summed, the fraction is the
// access-weighted mean across the combined records.
type PatternTotal struct {
	Kind string `json:"kind"`
	// Records is the number of fine records carrying the pattern.
	Records int `json:"records"`
	// Bytes sums the matched records' transferred bytes.
	Bytes uint64 `json:"bytes"`
	// MeanFraction is the access-weighted mean pattern fraction.
	MeanFraction float64 `json:"mean_fraction"`
}

// Aggregate is the process-level view across sessions.
type Aggregate struct {
	// Sessions lists the folded (finalized) session IDs, sorted.
	Sessions []string `json:"sessions"`
	// Running lists attached sessions not yet folded: their profiles are
	// in flight and belong to their stream handlers.
	Running []string `json:"running,omitempty"`
	// Programs is the sorted set of profiled application names.
	Programs []string `json:"programs,omitempty"`
	// Patterns is the sorted union of every report's pattern set.
	Patterns []string `json:"patterns,omitempty"`
	// PatternTotals aggregates fine records per pattern kind, sorted by
	// kind.
	PatternTotals []PatternTotal `json:"pattern_totals,omitempty"`

	Objects         int    `json:"objects"`
	ObjectBytes     uint64 `json:"object_bytes"`
	RedundantBytes  uint64 `json:"redundant_bytes"`
	DuplicateGroups int    `json:"duplicate_groups"`
	// DegradedSessions counts folded reports carrying a Degraded section.
	DegradedSessions int `json:"degraded_sessions,omitempty"`

	// Stats sums each session's run statistics. AnalysisTime is excluded
	// (left zero): it is wall-clock time and not additive across
	// concurrently executing sessions, and excluding it keeps the
	// aggregate a pure function of the deterministic report content.
	Stats profile.RunStats `json:"stats"`
}

// summary is what Fold reads of one finalized report, reduced once: a
// finished session keeps its summary instead of its report, so the
// aggregate never re-reads or re-parses the store.
type summary struct {
	program         string
	patterns        []string // the report's pattern set, sorted
	objects         int
	objectBytes     uint64
	redundantBytes  uint64
	duplicateGroups int
	degraded        bool
	stats           profile.RunStats
	kinds           []kindSum // fine records per pattern kind, first-seen order
}

// kindSum is one report's fine records carrying one pattern kind. The
// integer sums are associative; the float terms are not, so each
// record's Fraction×Accesses product is kept and added in record order —
// exactly the additions a fold over the report itself would make.
type kindSum struct {
	kind     string
	records  int
	bytes    uint64
	accesses uint64
	terms    []float64
}

// summarize reduces a finalized report to its summary.
func summarize(rep *profile.Report) *summary {
	s := &summary{
		program:         rep.Program,
		patterns:        sortedKeys(rep.PatternSet()),
		objects:         len(rep.Objects),
		redundantBytes:  rep.RedundantBytes(),
		duplicateGroups: len(rep.DuplicateGroups),
		degraded:        rep.Degraded != nil,
		stats:           rep.Stats,
	}
	for _, o := range rep.Objects {
		s.objectBytes += o.Size
	}
	idx := map[string]int{}
	for _, fr := range rep.Fine {
		for _, p := range fr.Patterns {
			i, ok := idx[p.Kind]
			if !ok {
				i = len(s.kinds)
				idx[p.Kind] = i
				s.kinds = append(s.kinds, kindSum{kind: p.Kind})
			}
			k := &s.kinds[i]
			k.records++
			k.bytes += fr.Bytes
			k.accesses += fr.Accesses
			// The conversion rounds the product, so it is never fused
			// into the later addition.
			k.terms = append(k.terms, float64(p.Fraction*float64(fr.Accesses)))
		}
	}
	return s
}

// Fold builds the aggregate from finalized session reports. ids[i]
// labels reps[i]; pairs are folded in sorted-ID order, making the result
// independent of completion order.
func Fold(ids []string, reps []*profile.Report) Aggregate {
	sums := make([]*summary, len(reps))
	for i, rep := range reps {
		sums[i] = summarize(rep)
	}
	return fold(ids, sums)
}

// fold is Fold over report summaries.
func fold(ids []string, sums []*summary) Aggregate {
	ord := make([]int, len(sums))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return sessionLess(ids[ord[a]], ids[ord[b]]) })

	agg := Aggregate{Sessions: []string{}}
	programs := map[string]bool{}
	patterns := map[string]bool{}
	totals := map[string]*PatternTotal{}
	weights := map[string]uint64{}
	for _, i := range ord {
		s := sums[i]
		agg.Sessions = append(agg.Sessions, ids[i])
		programs[s.program] = true
		for _, name := range s.patterns {
			patterns[name] = true
		}
		agg.Objects += s.objects
		agg.ObjectBytes += s.objectBytes
		agg.RedundantBytes += s.redundantBytes
		agg.DuplicateGroups += s.duplicateGroups
		if s.degraded {
			agg.DegradedSessions++
		}
		for _, k := range s.kinds {
			t := totals[k.kind]
			if t == nil {
				t = &PatternTotal{Kind: k.kind}
				totals[k.kind] = t
			}
			t.Records += k.records
			t.Bytes += k.bytes
			for _, x := range k.terms {
				t.MeanFraction += x
			}
			weights[k.kind] += k.accesses
		}

		st := s.stats
		agg.Stats.KernelLaunches += st.KernelLaunches
		agg.Stats.LaunchesProfiled += st.LaunchesProfiled
		agg.Stats.MemcpyCalls += st.MemcpyCalls
		agg.Stats.MemsetCalls += st.MemsetCalls
		agg.Stats.AllocCalls += st.AllocCalls
		agg.Stats.AccessRecords += st.AccessRecords
		agg.Stats.BufferFlushes += st.BufferFlushes
		agg.Stats.KernelTime += st.KernelTime
		agg.Stats.MemoryTime += st.MemoryTime
	}
	agg.Programs = sortedKeys(programs)
	agg.Patterns = sortedKeys(patterns)
	for kind, t := range totals {
		if w := weights[kind]; w > 0 {
			t.MeanFraction /= float64(w)
		}
		agg.PatternTotals = append(agg.PatternTotals, *t)
	}
	sort.Slice(agg.PatternTotals, func(a, b int) bool {
		return agg.PatternTotals[a].Kind < agg.PatternTotals[b].Kind
	})
	return agg
}

// sessionLess orders service-assigned IDs ("s-1", "s-2", …) numerically,
// falling back to lexical order for foreign IDs.
func sessionLess(a, b string) bool {
	na, oka := sessionNum(a)
	nb, okb := sessionNum(b)
	if oka && okb {
		return na < nb
	}
	return a < b
}

func sessionNum(id string) (int, bool) {
	if len(id) < 3 || id[0] != 's' || id[1] != '-' {
		return 0, false
	}
	n := 0
	for _, c := range id[2:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
