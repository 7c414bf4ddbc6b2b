package interval

// Set operations over sorted, disjoint interval lists (the form produced
// by MergeSequential / MergeParallel). The snapshot analyzer uses them to
// restrict redundancy diffs to bytes whose previous value is defined.

// Union merges two sorted disjoint interval lists into one, in a single
// linear sweep.
func Union(a, b []Interval) []Interval {
	out := make([]Interval, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var next Interval
		if len(b) == 0 || (len(a) > 0 && a[0].Start <= b[0].Start) {
			next, a = a[0], a[1:]
		} else {
			next, b = b[0], b[1:]
		}
		if n := len(out); n > 0 && next.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, next.End)
		} else {
			out = append(out, next)
		}
	}
	return out
}

// Intersect returns the overlap of two sorted disjoint interval lists.
func Intersect(a, b []Interval) []Interval {
	var out []Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s := a[i].Start
		if b[j].Start > s {
			s = b[j].Start
		}
		e := a[i].End
		if b[j].End < e {
			e = b[j].End
		}
		if s < e {
			out = append(out, Interval{Start: s, End: e})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}
