package vpattern

import "slices"

// Table is a dense arena keyed by allocation ID: index maps an ID to its
// arena slot + 1 (0 = absent), arena stores the states by value in
// first-touch order, and ids remembers which IDs are present so Reset and
// iteration never scan the full index. Allocation IDs are small and dense
// (a counter), so the index is a flat slice rather than a map — At in
// the steady state is two slice loads. The index grows to the largest ID
// seen. Negative IDs are not keys.
//
// Reset keeps every allocation: the index stays at length (only touched
// IDs are zeroed), the arena truncates but retains its slots' interior
// capacities, and At revives truncated slots by re-extending the arena.
// The invariant making revival safe: Reset clears each live slot before
// truncating, so everything between len(arena) and cap(arena) is always
// in its cleared state.
//
// The fine path's shared context and detectors and the coarse stage's
// per-launch accumulator all keep their per-object state in one.
type Table[T any] struct {
	index []int32
	ids   []int
	arena []T
}

// Get returns id's state, or nil when absent.
func (t *Table[T]) Get(id int) *T {
	if id < 0 || id >= len(t.index) {
		return nil
	}
	s := t.index[id]
	if s == 0 {
		return nil
	}
	return &t.arena[s-1]
}

// At returns id's state, creating a cleared one if absent. The pointer is
// valid until the next At call (arena growth may move states).
func (t *Table[T]) At(id int) (p *T, created bool) {
	if id >= len(t.index) {
		n := id + 1
		if n < 2*len(t.index) {
			n = 2 * len(t.index)
		}
		if n < 16 {
			n = 16
		}
		idx := make([]int32, n)
		copy(idx, t.index)
		t.index = idx
	}
	if s := t.index[id]; s != 0 {
		return &t.arena[s-1], false
	}
	t.ids = append(t.ids, id)
	if len(t.arena) < cap(t.arena) {
		t.arena = t.arena[:len(t.arena)+1] // revive a cleared slot, keeping its capacities
	} else {
		var zero T
		t.arena = append(t.arena, zero)
	}
	t.index[id] = int32(len(t.arena))
	return &t.arena[len(t.arena)-1], true
}

// IDs returns the present IDs in ascending order. The slice is the
// table's own, sorted in place: callers must not modify it, and it is
// valid until the next At or Reset.
func (t *Table[T]) IDs() []int {
	slices.Sort(t.ids)
	return t.ids
}

// Reset empties the table in place. clearSlot, when non-nil, clears one
// state preserving its interior allocations; nil zeroes states outright.
func (t *Table[T]) Reset(clearSlot func(*T)) {
	for _, id := range t.ids {
		t.index[id] = 0
	}
	if clearSlot != nil {
		for i := range t.arena {
			clearSlot(&t.arena[i])
		}
	} else {
		clear(t.arena)
	}
	t.arena = t.arena[:0]
	t.ids = t.ids[:0]
}
