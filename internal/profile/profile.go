// Package profile defines ValueExpert's output data model: the annotated
// profile combining coarse-grained per-API pattern records, fine-grained
// per-object pattern reports, duplicate groups, data-object metadata with
// calling contexts, and run statistics. Profiles serialize to JSON and
// render to text; the value flow graph is exported separately as DOT.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Object describes one device data object (allocation).
type Object struct {
	ID       int    `json:"id"`
	Tag      string `json:"tag"`
	Size     uint64 `json:"size"`
	CallPath string `json:"call_path,omitempty"`
}

// Pattern is a serialized pattern match.
type Pattern struct {
	Kind     string  `json:"kind"`
	Fraction float64 `json:"fraction"`
	Detail   string  `json:"detail,omitempty"`
}

// ObjectAccess summarizes one object's coarse view at one API.
type ObjectAccess struct {
	ObjectID       int    `json:"object_id"`
	ReadBytes      uint64 `json:"read_bytes"`
	WrittenBytes   uint64 `json:"written_bytes"`
	UnchangedBytes uint64 `json:"unchanged_bytes"`
	Redundant      bool   `json:"redundant"`

	// UniformCopy marks a host-to-device transfer whose source bytes all
	// carry the same value: the copy could have been a cudaMemset on the
	// device, saving CPU-GPU bandwidth (Darknet Inefficiency II).
	UniformCopy bool `json:"uniform_copy,omitempty"`
}

// CoarseRecord is one GPU API invocation's coarse-grained result.
type CoarseRecord struct {
	Seq      int            `json:"seq"`
	API      string         `json:"api"`
	Name     string         `json:"name"`
	CallPath string         `json:"call_path,omitempty"`
	Duration time.Duration  `json:"duration_ns"`
	Objects  []ObjectAccess `json:"objects,omitempty"`
}

// ValueCount is a serialized (value, count) histogram entry.
type ValueCount struct {
	Value string `json:"value"`
	Count uint64 `json:"count"`
}

// FineRecord is one data object's fine-grained pattern report at one
// kernel launch.
type FineRecord struct {
	Seq      int    `json:"seq"`
	Kernel   string `json:"kernel"`
	ObjectID int    `json:"object_id"`

	Accesses  uint64 `json:"accesses"`
	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	Bytes     uint64 `json:"bytes"`
	Distinct  int    `json:"distinct_values"`
	Saturated bool   `json:"saturated,omitempty"`

	TopValues []ValueCount `json:"top_values,omitempty"`
	Patterns  []Pattern    `json:"patterns,omitempty"`
}

// ReuseRecord is one kernel launch's reuse-distance histogram (the
// extension analysis built on the measurement pipeline).
type ReuseRecord struct {
	Seq    int    `json:"seq"`
	Kernel string `json:"kernel"`

	Accesses   uint64   `json:"accesses"`
	ColdMisses uint64   `json:"cold_misses"`
	Buckets    []uint64 `json:"buckets"` // counts per log2(distance) bucket

	// Estimated hit fractions of fully-associative LRU caches at L1- and
	// L2-like capacities (4K and 128K cache lines).
	L1HitFraction float64 `json:"l1_hit_fraction"`
	L2HitFraction float64 `json:"l2_hit_fraction"`
}

// RunStats aggregates measurement statistics for the profiled run.
type RunStats struct {
	KernelLaunches   int           `json:"kernel_launches"`
	LaunchesProfiled int           `json:"launches_profiled"`
	MemcpyCalls      int           `json:"memcpy_calls"`
	MemsetCalls      int           `json:"memset_calls"`
	AllocCalls       int           `json:"alloc_calls"`
	AccessRecords    uint64        `json:"access_records"`
	BufferFlushes    uint64        `json:"buffer_flushes"`
	KernelTime       time.Duration `json:"kernel_time_ns"`
	MemoryTime       time.Duration `json:"memory_time_ns"`
	// AnalysisTime is every Overhead layer but the program, up to this
	// report; it varies run to run, so byte comparisons zero it.
	AnalysisTime time.Duration `json:"analysis_time_ns"`
}

// Overhead is the profiler's own cost (§6): the kernel goroutine's wall
// time from Attach to its last layer switch (after a run, the last Report
// or Detach) as exclusive Layers summing to Wall, the analysis goroutine's
// busy time overlapping Wall, and the simulated snapshot copy cost
// (Figure 5; model time). Only Profiler.Overhead fills it, so default
// reports stay byte-identical.
type Overhead struct {
	Wall         time.Duration `json:"wall_ns"`
	Layers       []Layer       `json:"layers"`
	AnalysisBusy time.Duration `json:"analysis_busy_ns"`
	SnapshotTime time.Duration `json:"snapshot_ns"`
}

// Layer is one exclusive part of Overhead.Wall.
type Layer struct {
	Name string        `json:"name"`
	Time time.Duration `json:"ns"`
}

// Report is the complete annotated profile.
type Report struct {
	Tool    string `json:"tool"`
	Device  string `json:"device"`
	Program string `json:"program"`

	// EnabledPatterns records a non-default detector selection (the
	// engine's Config.Patterns); empty when the default registry set ran,
	// so default-config reports are unchanged.
	EnabledPatterns []string `json:"enabled_patterns,omitempty"`

	Objects         []Object       `json:"objects"`
	Coarse          []CoarseRecord `json:"coarse,omitempty"`
	Fine            []FineRecord   `json:"fine,omitempty"`
	Reuse           []ReuseRecord  `json:"reuse,omitempty"`
	DuplicateGroups [][]int        `json:"duplicate_groups,omitempty"`
	Stats           RunStats       `json:"stats"`

	// Overhead is the optional self-observation section; nil (and absent
	// from JSON and text) unless the caller filled it from
	// Profiler.Overhead.
	Overhead *Overhead `json:"overhead,omitempty"`

	// Degraded is present only when the run lost measurement data — failed
	// APIs, skipped launches, dropped sanitizer buffers — so a clean run's
	// report is byte-identical with or without fault plumbing armed, and a
	// partial run can never masquerade as a complete one.
	Degraded *Degraded `json:"degraded,omitempty"`
}

// Degraded names what a partial run lost. Consumers must treat any
// non-nil Degraded section as "the numbers below are a lower bound".
type Degraded struct {
	// InjectedFaults lists the fault-injection triggers that fired, in
	// spec grammar (replayable via vxprof -faults).
	InjectedFaults []string `json:"injected_faults,omitempty"`
	// FailedAPIs lists runtime APIs that began but never completed.
	FailedAPIs []string `json:"failed_apis,omitempty"`
	// SkippedLaunches counts instrumented launches whose analysis was
	// discarded because the kernel failed mid-execution.
	SkippedLaunches int `json:"skipped_launches,omitempty"`
	// DroppedRecords/DroppedFlushes count access records and buffer
	// deliveries lost between the device and the analyzer.
	DroppedRecords uint64 `json:"dropped_records,omitempty"`
	DroppedFlushes uint64 `json:"dropped_flushes,omitempty"`
}

// PatternSet returns the set of pattern kind names present anywhere in
// the report (the per-application row of Table 1).
func (r *Report) PatternSet() map[string]bool {
	set := make(map[string]bool)
	for _, c := range r.Coarse {
		for _, oa := range c.Objects {
			// Uniform host-to-device copies are reported under the
			// redundant-values family: the transfer moves no information a
			// device-side memset could not produce.
			if oa.Redundant || oa.UniformCopy {
				set["redundant values"] = true
			}
		}
	}
	if len(r.DuplicateGroups) > 0 {
		set["duplicate values"] = true
	}
	for _, f := range r.Fine {
		for _, p := range f.Patterns {
			set[p.Kind] = true
		}
	}
	return set
}

// ObjectByID returns the object metadata, if recorded.
func (r *Report) ObjectByID(id int) (Object, bool) {
	for _, o := range r.Objects {
		if o.ID == id {
			return o, true
		}
	}
	return Object{}, false
}

// FineFor returns the fine records of the named kernel.
func (r *Report) FineFor(kernel string) []FineRecord {
	var out []FineRecord
	for _, f := range r.Fine {
		if f.Kernel == kernel {
			out = append(out, f)
		}
	}
	return out
}

// HistoryStep is one API invocation that touched a data object, in
// program order — the per-object exploration the GUI offers ("explore
// the value changes of any data object along specific paths", §4).
type HistoryStep struct {
	Seq      int    `json:"seq"`
	API      string `json:"api"`
	Name     string `json:"name"`
	CallPath string `json:"call_path,omitempty"`

	ReadBytes      uint64 `json:"read_bytes"`
	WrittenBytes   uint64 `json:"written_bytes"`
	UnchangedBytes uint64 `json:"unchanged_bytes"`
	Redundant      bool   `json:"redundant"`
	UniformCopy    bool   `json:"uniform_copy"`
}

// ObjectHistory returns every coarse record touching object id, in
// execution order: the object's value timeline.
func (r *Report) ObjectHistory(id int) []HistoryStep {
	var out []HistoryStep
	for _, c := range r.Coarse {
		for _, oa := range c.Objects {
			if oa.ObjectID != id {
				continue
			}
			out = append(out, HistoryStep{
				Seq: c.Seq, API: c.API, Name: c.Name, CallPath: c.CallPath,
				ReadBytes: oa.ReadBytes, WrittenBytes: oa.WrittenBytes,
				UnchangedBytes: oa.UnchangedBytes,
				Redundant:      oa.Redundant, UniformCopy: oa.UniformCopy,
			})
		}
	}
	return out
}

// FormatHistory renders an object's timeline for reports.
func (r *Report) FormatHistory(id int) string {
	steps := r.ObjectHistory(id)
	if len(steps) == 0 {
		return ""
	}
	tag := fmt.Sprintf("obj#%d", id)
	if o, ok := r.ObjectByID(id); ok && o.Tag != "" {
		tag = o.Tag
	}
	var b strings.Builder
	fmt.Fprintf(&b, "value history of %s:\n", tag)
	for _, s := range steps {
		verdict := ""
		switch {
		case s.UniformCopy:
			verdict = "  <- uniform copy (memset-able)"
		case s.Redundant:
			verdict = "  <- redundant"
		}
		fmt.Fprintf(&b, "  seq %-4d %-20s read %-8d wrote %-8d unchanged %-8d%s\n",
			s.Seq, s.Name, s.ReadBytes, s.WrittenBytes, s.UnchangedBytes, verdict)
	}
	return b.String()
}

// RedundantBytes totals unchanged written bytes across all coarse records,
// the headline quantity thick red edges represent.
func (r *Report) RedundantBytes() uint64 {
	var n uint64
	for _, c := range r.Coarse {
		for _, oa := range c.Objects {
			n += oa.UnchangedBytes
		}
	}
	return n
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("profile: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a report.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return &r, nil
}

// Text renders a human-readable report: the terminal analog of the GUI.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s profile: %s on %s ===\n", r.Tool, r.Program, r.Device)
	fmt.Fprintf(&b, "objects: %d, APIs profiled: %d coarse / %d fine records\n",
		len(r.Objects), len(r.Coarse), len(r.Fine))
	fmt.Fprintf(&b, "device time: kernels %v, memory ops %v\n", r.Stats.KernelTime, r.Stats.MemoryTime)

	if d := r.Degraded; d != nil {
		fmt.Fprintf(&b, "\n-- DEGRADED RUN: results below are a lower bound --\n")
		if len(d.InjectedFaults) > 0 {
			fmt.Fprintf(&b, "  injected faults: %s\n", strings.Join(d.InjectedFaults, ", "))
		}
		for _, api := range d.FailedAPIs {
			fmt.Fprintf(&b, "  failed API: %s\n", api)
		}
		if d.SkippedLaunches > 0 {
			fmt.Fprintf(&b, "  launches skipped by analysis: %d\n", d.SkippedLaunches)
		}
		if d.DroppedRecords > 0 || d.DroppedFlushes > 0 {
			fmt.Fprintf(&b, "  lost instrumentation: %d records in %d dropped deliveries\n",
				d.DroppedRecords, d.DroppedFlushes)
		}
	}

	pats := r.PatternSet()
	if len(pats) > 0 {
		names := make([]string, 0, len(pats))
		for p := range pats {
			names = append(names, p)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "patterns found: %s\n", strings.Join(names, ", "))
	}

	if n := r.RedundantBytes(); n > 0 {
		fmt.Fprintf(&b, "\n-- redundant values (coarse) --\n")
		for _, c := range r.Coarse {
			for _, oa := range c.Objects {
				if !oa.Redundant {
					continue
				}
				tag := fmt.Sprintf("obj%d", oa.ObjectID)
				if o, ok := r.ObjectByID(oa.ObjectID); ok && o.Tag != "" {
					tag = o.Tag
				}
				fmt.Fprintf(&b, "  seq %d %s (%s): %s — %d of %d written bytes unchanged\n",
					c.Seq, c.Name, c.API, tag, oa.UnchangedBytes, oa.WrittenBytes)
				if c.CallPath != "" {
					fmt.Fprintf(&b, "    at %s\n", strings.ReplaceAll(c.CallPath, "\n", " <- "))
				}
			}
		}
	}

	if len(r.DuplicateGroups) > 0 {
		fmt.Fprintf(&b, "\n-- duplicate values --\n")
		for _, g := range r.DuplicateGroups {
			var tags []string
			for _, id := range g {
				if o, ok := r.ObjectByID(id); ok && o.Tag != "" {
					tags = append(tags, fmt.Sprintf("%s(#%d)", o.Tag, id))
				} else {
					tags = append(tags, fmt.Sprintf("#%d", id))
				}
			}
			fmt.Fprintf(&b, "  identical contents: %s\n", strings.Join(tags, " = "))
		}
	}

	if len(r.Reuse) > 0 {
		fmt.Fprintf(&b, "\n-- reuse distances --\n")
		for _, rr := range r.Reuse {
			fmt.Fprintf(&b, "  kernel %s: %d accesses, %d cold; est. hit fraction L1 %.0f%%, L2 %.0f%%\n",
				rr.Kernel, rr.Accesses, rr.ColdMisses, 100*rr.L1HitFraction, 100*rr.L2HitFraction)
		}
	}

	if r.Overhead != nil {
		o := r.Overhead
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(max(o.Wall, 1)) }
		fmt.Fprintf(&b, "\n-- profiler overhead --\n")
		fmt.Fprintf(&b, "  wall %v, as exclusive layers:\n", o.Wall)
		for _, l := range o.Layers {
			fmt.Fprintf(&b, "    %-12s %v (%.1f%%)\n", l.Name, l.Time, pct(l.Time))
		}
		fmt.Fprintf(&b, "  analysis goroutine busy %v (%.1f%% of wall, overlapping it)\n",
			o.AnalysisBusy, pct(o.AnalysisBusy))
		fmt.Fprintf(&b, "  snapshots %v (simulated copy cost, model time)\n", o.SnapshotTime)
	}

	if len(r.Fine) > 0 {
		fmt.Fprintf(&b, "\n-- fine-grained patterns --\n")
		for _, f := range r.Fine {
			if len(f.Patterns) == 0 {
				continue
			}
			tag := fmt.Sprintf("obj%d", f.ObjectID)
			if o, ok := r.ObjectByID(f.ObjectID); ok && o.Tag != "" {
				tag = o.Tag
			}
			fmt.Fprintf(&b, "  kernel %s, %s: %d accesses (%d loads, %d stores)\n",
				f.Kernel, tag, f.Accesses, f.Loads, f.Stores)
			for _, p := range f.Patterns {
				fmt.Fprintf(&b, "    %s (%.1f%%)", p.Kind, 100*p.Fraction)
				if p.Detail != "" {
					fmt.Fprintf(&b, ": %s", p.Detail)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}
