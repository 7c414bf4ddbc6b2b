package vpattern

// Builtin pattern registrations. Registration order is the order matches
// appear in reports: the two coarse kinds first (they head the paper's
// taxonomy and the report's coarse tables), then the fine kinds in the
// order the analyzer has always emitted them — single zero before single
// value (the zero case is the stronger claim), then frequent, heavy,
// structured, approximate.
func init() {
	Register(Registration{
		Kind:    RedundantValues,
		Name:    "redundant values",
		Grain:   GrainCoarse,
		Default: true,
	})
	Register(Registration{
		Kind:    DuplicateValues,
		Name:    "duplicate values",
		Grain:   GrainCoarse,
		Default: true,
	})
	Register(Registration{
		Kind:    SingleZero,
		Name:    "single zero",
		Grain:   GrainFine,
		Default: true,
		New:     newSingleZeroDetector,
		Advise:  adviseFlat("conditionally bypass computation and stores when the operand is zero"),
	})
	Register(Registration{
		Kind:    SingleValue,
		Name:    "single value",
		Grain:   GrainFine,
		Default: true,
		New:     newSingleValueDetector,
		Advise:  adviseFlat("contract the array to a scalar (all accessed values identical)"),
	})
	Register(Registration{
		Kind:    FrequentValues,
		Name:    "frequent values",
		Grain:   GrainFine,
		Default: true,
		New:     newFrequentDetector,
		Advise:  adviseScaled("add conditional computation for the hot value(s) to skip redundant work", 1),
	})
	Register(Registration{
		Kind:    HeavyType,
		Name:    "heavy type",
		Grain:   GrainFine,
		Default: true,
		New:     newHeavyTypeDetector,
		Advise:  adviseScaled("demote the element type to shrink memory traffic", 1),
	})
	Register(Registration{
		Kind:    StructuredValues,
		Name:    "structured values",
		Grain:   GrainFine,
		Default: true,
		New:     newStructuredDetector,
		Advise:  adviseFlat("compute values from array indices instead of loading them"),
	})
	Register(Registration{
		Kind:    ApproximateValues,
		Name:    "approximate values",
		Grain:   GrainFine,
		Default: true,
		New:     newApproxDetector,
		Advise:  adviseScaled("exploit the pattern after mantissa relaxation (accuracy budget permitting)", 0.5),
	})
}

// adviseFlat suggests title with the object's full accessed bytes as the
// benefit — for patterns whose exploitation avoids the whole traffic.
func adviseFlat(title string) FineAdvice {
	return func(_ Match, objectBytes uint64) (string, uint64, bool) {
		return title, objectBytes, true
	}
}

// adviseScaled suggests title with the benefit scaled by the match's
// strength (and a further discount for optimizations that only pay off
// partially, e.g. accuracy-gated relaxation).
func adviseScaled(title string, discount float64) FineAdvice {
	return func(m Match, objectBytes uint64) (string, uint64, bool) {
		return title, uint64(float64(objectBytes) * m.Fraction * discount), true
	}
}
