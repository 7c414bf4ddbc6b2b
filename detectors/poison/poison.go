// Package poison detects NaN and Inf "poison values" flowing through GPU
// kernels — values that silently corrupt downstream math and usually mark
// an uninitialized buffer, a division blow-up, or an out-of-range
// intrinsic. It is ValueExpert's reference out-of-tree detector: the
// whole pattern — recognition, advisor suggestion, GUI section — is wired
// through the public registration surface, with no change to the engine.
//
// The pattern is off by default; enable it by name:
//
//	cfg.Patterns = append(valueexpert.DefaultPatternNames(), poison.Name)
package poison

import (
	"fmt"
	"html"
	"math"
	"strings"

	"valueexpert"
	"valueexpert/gpu"
)

// Name selects the pattern in Config.Patterns and vxprof -patterns.
const Name = "poison values"

// Kind is the pattern's registry-allocated kind.
var Kind = valueexpert.RegisterPattern(valueexpert.PatternRegistration{
	Kind:    valueexpert.AutoPatternKind,
	Name:    Name,
	Grain:   valueexpert.FineGrain,
	Default: false,
	New: func(valueexpert.FineConfig) valueexpert.PatternDetector {
		return &detector{counts: map[int]*objCount{}}
	},
	Advise: advise,
})

func init() {
	valueexpert.RegisterReportSection(Name, renderSection)
}

// objCount tallies one object's poisoned float accesses.
type objCount struct {
	nan, inf uint64
}

// detector counts NaN/Inf float accesses per data object.
type detector struct {
	counts map[int]*objCount
}

func (d *detector) Observe(objID int, a gpu.Access) {
	if a.Kind != gpu.KindFloat {
		return
	}
	var f float64
	switch a.Size {
	case 4:
		f = float64(gpu.Float32FromRaw(a.Raw))
	case 8:
		f = gpu.Float64FromRaw(a.Raw)
	default:
		return
	}
	switch {
	case math.IsNaN(f):
		d.count(objID).nan++
	case math.IsInf(f, 0):
		d.count(objID).inf++
	}
}

func (d *detector) count(objID int) *objCount {
	c := d.counts[objID]
	if c == nil {
		c = &objCount{}
		d.counts[objID] = c
	}
	return c
}

func (d *detector) Finalize(objID int, sh *valueexpert.ObjectObservation) (valueexpert.PatternMatch, bool) {
	c := d.counts[objID]
	if c == nil || c.nan+c.inf == 0 {
		return valueexpert.PatternMatch{}, false
	}
	poisoned := c.nan + c.inf
	frac := float64(poisoned) / float64(sh.Accesses())
	return valueexpert.PatternMatch{
		Kind:     Kind,
		Fraction: frac,
		Detail: fmt.Sprintf("%d poisoned access(es): %d NaN, %d Inf (%.1f%% of accesses)",
			poisoned, c.nan, c.inf, 100*frac),
	}, true
}

// advise turns a poison match into a suggestion: any poison at all is
// worth chasing, so the benefit is the whole object weighted by how much
// of the traffic is already corrupted.
func advise(m valueexpert.PatternMatch, objectBytes uint64) (string, uint64, bool) {
	benefit := uint64(float64(objectBytes) * m.Fraction)
	if benefit == 0 {
		benefit = 1 // never rank a real poison finding at zero
	}
	return "trace the NaN/Inf source (uninitialized memory, division by zero, or overflow) before it propagates", benefit, true
}

// renderSection lists every poison finding in its own GUI table; reports
// without poison findings get no section.
func renderSection(rep *valueexpert.Report) string {
	var rows strings.Builder
	for _, f := range rep.Fine {
		for _, p := range f.Patterns {
			if p.Kind != Name {
				continue
			}
			fmt.Fprintf(&rows, "<tr><td>%s</td><td>#%d</td><td>%.1f%%</td><td>%s</td></tr>\n",
				html.EscapeString(f.Kernel), f.ObjectID, 100*p.Fraction, html.EscapeString(p.Detail))
		}
	}
	if rows.Len() == 0 {
		return ""
	}
	return "<h2>Poison values (NaN/Inf)</h2>\n<table>\n" +
		"<tr><th>Kernel</th><th>Object</th><th>Poisoned</th><th>Detail</th></tr>\n" +
		rows.String() + "</table>\n"
}
