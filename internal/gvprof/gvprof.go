// Package gvprof implements the baseline value profiler ValueExpert is
// evaluated against (paper §7, Table 5): GVProf. It reproduces the design
// decisions the paper criticizes so the overhead and capability
// comparisons are meaningful:
//
//   - analysis is limited to individual GPU kernels (no cross-API value
//     flows, no pattern categorization, no data-object view);
//   - every access record is processed one at a time on the CPU
//     (per-address hash lookups, no interval merging, no batching);
//   - measurement data moves with whole-object direct copies after every
//     kernel (no min-max/segment/adaptive strategies).
//
// Its output is per-instruction temporal/spatial value redundancy, the
// metric GVProf reports.
package gvprof

import (
	"fmt"
	"sort"
	"time"

	"valueexpert/cuda"
	"valueexpert/gpu"
)

// RedundancyKey identifies an instruction by kernel and PC.
type RedundancyKey struct {
	Kernel string
	PC     gpu.PC
}

// Redundancy is GVProf's per-instruction result.
type Redundancy struct {
	Key RedundancyKey

	Stores         uint64
	TemporalStores uint64 // store of the value already at that address
	Loads          uint64
	TemporalLoads  uint64 // load of the value last loaded from that address
	SpatialStores  uint64 // store equal to the preceding store in the warp
}

// traceBuffer is GVProf's small measurement buffer: every fill triggers a
// GPU→CPU copy followed by sequential CPU-side analysis of each record —
// the frequent communication and per-record processing §7 measures.
const traceBuffer = 4096

// RecordBytes is one access record's size on its way off the device: the
// volume a drain moves per record, and the unit Table 5's transfer
// comparison prices ValueExpert's buffer flushes in.
const RecordBytes = 24

// Profiler is an attached GVProf instance.
type Profiler struct {
	rt *cuda.Runtime

	// Per-address last values: the per-access CPU-side hash maps that make
	// GVProf expensive.
	lastStored map[uint64]uint64
	lastLoaded map[uint64]uint64

	results map[RedundancyKey]*Redundancy

	trace     []gpu.Access
	curKernel string

	prevStoreRaw uint64
	prevStoreOK  bool

	copyTime time.Duration
}

// Attach installs GVProf on the runtime.
func Attach(rt *cuda.Runtime) *Profiler {
	p := &Profiler{
		rt:         rt,
		lastStored: make(map[uint64]uint64),
		lastLoaded: make(map[uint64]uint64),
		results:    make(map[RedundancyKey]*Redundancy),
		trace:      make([]gpu.Access, 0, traceBuffer),
	}
	rt.SetInterceptor(p)
	return p
}

// Detach removes the profiler.
func (p *Profiler) Detach() { p.rt.SetInterceptor(nil) }

// APIBegin implements cuda.Interceptor.
func (p *Profiler) APIBegin(ev *cuda.APIEvent) {}

// APIEnd implements cuda.Interceptor: after every kernel, GVProf copies
// each live data object from the GPU in full (the frequent GPU-CPU
// communication the paper measures).
func (p *Profiler) APIEnd(ev *cuda.APIEvent) {
	if ev.Kind != cuda.APILaunch {
		return
	}
	p.drain()
	dev := p.rt.Device()
	for _, a := range dev.Mem.Live() {
		buf := make([]byte, a.Size)
		if err := dev.Mem.Read(a.Addr, buf); err == nil {
			p.copyTime += dev.Prof.CopyCost(a.Size, gpu.CopyDeviceToHost)
		}
	}
}

// Instrumentation implements cuda.Interceptor: every kernel, every block,
// every access — GVProf has no sampling or filtering.
func (p *Profiler) Instrumentation(kernelName string) (gpu.AccessFunc, func(int32) bool) {
	p.curKernel = kernelName
	return func(a gpu.Access) {
		p.trace = append(p.trace, a)
		if len(p.trace) >= traceBuffer {
			p.drain()
		}
	}, nil
}

// drain copies the measurement buffer off the "device" and analyzes each
// record individually on the CPU: object resolution, then temporal and
// spatial redundancy bookkeeping in per-address hash tables.
func (p *Profiler) drain() {
	if len(p.trace) == 0 {
		return
	}
	cp := make([]gpu.Access, len(p.trace))
	copy(cp, p.trace)
	p.trace = p.trace[:0]
	dev := p.rt.Device()
	p.copyTime += dev.Prof.CopyCost(uint64(len(cp))*RecordBytes, gpu.CopyDeviceToHost)

	mem := dev.Mem
	for _, rec := range cp {
		// GVProf has no warp compaction: compacted range records are
		// expanded and every element is processed individually.
		for e := 0; e < rec.Elems(); e++ {
			a := rec
			a.Count = 1
			a.Addr = rec.Addr + uint64(e)*uint64(rec.Size)
			if !a.Store && rec.Count > 1 {
				if raw, err := mem.LoadRaw(a.Addr, a.Size); err == nil {
					a.Raw = raw
				}
			}
			p.analyzeOne(mem, a)
		}
	}
}

func (p *Profiler) analyzeOne(mem *gpu.Memory, a gpu.Access) {
	{
		_ = mem.Lookup(a.Addr) // per-record object resolution, uncached
		key := RedundancyKey{Kernel: p.curKernel, PC: a.PC}
		r := p.results[key]
		if r == nil {
			r = &Redundancy{Key: key}
			p.results[key] = r
		}
		if a.Store {
			r.Stores++
			if last, ok := p.lastStored[a.Addr]; ok && last == a.Raw {
				r.TemporalStores++
			}
			if p.prevStoreOK && p.prevStoreRaw == a.Raw {
				r.SpatialStores++
			}
			p.prevStoreRaw, p.prevStoreOK = a.Raw, true
			p.lastStored[a.Addr] = a.Raw
		} else {
			r.Loads++
			if last, ok := p.lastLoaded[a.Addr]; ok && last == a.Raw {
				r.TemporalLoads++
			}
			p.lastLoaded[a.Addr] = a.Raw
		}
	}
}

// Results returns per-instruction redundancies sorted by kernel then PC.
func (p *Profiler) Results() []Redundancy {
	out := make([]Redundancy, 0, len(p.results))
	for _, r := range p.results {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Kernel != out[j].Key.Kernel {
			return out[i].Key.Kernel < out[j].Key.Kernel
		}
		return out[i].Key.PC < out[j].Key.PC
	})
	return out
}

// CopyTime is the simulated time of GVProf's GPU→CPU transfers, priced
// by the device's copy cost: one call per whole-object copy and one per
// record drain.
func (p *Profiler) CopyTime() time.Duration { return p.copyTime }

// Summary renders the top redundant instructions.
func (p *Profiler) Summary(max int) string {
	res := p.Results()
	sort.Slice(res, func(i, j int) bool {
		return res[i].TemporalStores+res[i].TemporalLoads > res[j].TemporalStores+res[j].TemporalLoads
	})
	if len(res) > max {
		res = res[:max]
	}
	s := "GVProf redundancy report (per instruction):\n"
	for _, r := range res {
		s += fmt.Sprintf("  %s pc=%d: stores %d (temporal %d, spatial %d), loads %d (temporal %d)\n",
			r.Key.Kernel, r.Key.PC, r.Stores, r.TemporalStores, r.SpatialStores, r.Loads, r.TemporalLoads)
	}
	return s
}
