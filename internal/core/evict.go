package core

// Dead-allocation eviction bounds the engine's memory on unbounded-
// lifetime runs (the vxprofd serving story): a freed data object's
// snapshot is already released at cudaFree, but its report state — the
// object-table entry, coarse/fine records, flow-graph edges, duplicate
// groups — otherwise accumulates forever. The profiler tracks dead
// objects in free order (which IS least-recently-used order: a freed
// object is never touched again) and, when Config.RetainDeadObjects is
// set, evicts the oldest dead objects' state once the dead set grows past
// twice that bound, sweeping back down to it. Eviction only ever removes
// state keyed to evicted objects; everything reported about live (and
// retained-dead) objects is byte-identical to an eviction-free run.

// ObjectEvicter is the optional Analysis extension for stages that hold
// per-object state: EvictObjects drops everything keyed to the given dead
// object IDs. Called only between API events, never during a launch, so
// implementations need no locking: the engine first waits for the
// analysis goroutine. A stage without per-object state
// simply doesn't implement the interface.
type ObjectEvicter interface {
	EvictObjects(dead map[int]bool)
}

// noteFree records a completed cudaFree: the object joins the dead list
// (free order = LRU order) and, past the configured hysteresis bound, the
// oldest dead objects are swept.
func (p *Profiler) noteFree() {
	if p.pendingFree < 0 {
		return
	}
	p.deadIDs = append(p.deadIDs, p.pendingFree)
	p.pendingFree = -1
	if cap := p.cfg.RetainDeadObjects; cap > 0 && len(p.deadIDs) > 2*cap {
		// Hysteresis: sweeping every free past the bound would turn each
		// cudaFree into an O(records) filter pass. Letting the dead set
		// grow to 2×cap before sweeping back down to cap amortizes the
		// pass over cap frees, so the retained dead set is bounded by
		// 2×RetainDeadObjects.
		p.EvictDeadObjects(cap)
	}
}

// EvictDeadObjects evicts the oldest dead objects until at most keep
// remain tracked, removing their state from the object table, every
// registered stage, and the value flow graph. Returns the number of
// objects evicted. Eviction is engine-internal bookkeeping: it adds
// nothing to the report, it only removes evicted objects from it.
func (p *Profiler) EvictDeadObjects(keep int) int {
	if keep < 0 {
		keep = 0
	}
	n := len(p.deadIDs) - keep
	if n <= 0 {
		return 0
	}
	// The analysis goroutine may still be appending fine records.
	p.barrier()
	dead := make(map[int]bool, n)
	for _, id := range p.deadIDs[:n] {
		dead[id] = true
	}
	p.deadIDs = append(p.deadIDs[:0], p.deadIDs[n:]...)

	kept := p.objects[:0]
	for _, o := range p.objects {
		if !dead[o.ID] {
			kept = append(kept, o)
		}
	}
	clear(p.objects[len(kept):])
	p.objects = kept

	for _, st := range p.stages {
		if oe, ok := st.(ObjectEvicter); ok {
			oe.EvictObjects(dead)
		}
	}
	p.graph.EvictObjects(dead)

	p.evictedObjects += n
	p.probes.evictedObjects.Add(uint64(n))
	return n
}

// EvictedObjects reports how many dead objects have been evicted.
func (p *Profiler) EvictedObjects() int { return p.evictedObjects }

// DeadObjects reports how many freed objects are currently tracked and
// evictable.
func (p *Profiler) DeadObjects() int { return len(p.deadIDs) }
