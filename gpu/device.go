// Package gpu implements the simulated GPU substrate ValueExpert runs on:
// a device with a flat 64-bit global-memory address space, a SIMT execution
// engine that runs kernels as grids of blocks of threads, and an analytical
// cost model calibrated to the two platforms evaluated in the paper
// (NVIDIA RTX 2080 Ti and A100, Table 2).
//
// The cost model is deliberately simple — a roofline over DRAM traffic and
// arithmetic throughput plus fixed per-call latencies — because the
// reproduction targets the *shape* of the paper's results (who wins, by
// roughly what factor, and why the two GPUs differ), not absolute
// microseconds.
package gpu

import (
	"fmt"
	"time"
)

// Profile describes the performance-relevant characteristics of a device.
type Profile struct {
	Name string

	// SMs is the number of streaming multiprocessors.
	SMs int

	// MemBytes is the size of device global memory.
	MemBytes uint64

	// DRAMBandwidth is the device-memory bandwidth in bytes per second.
	DRAMBandwidth float64

	// PCIeBandwidth is the host<->device copy bandwidth in bytes per second.
	PCIeBandwidth float64

	// FP32Throughput and FP64Throughput are peak arithmetic rates in FLOP/s.
	FP32Throughput float64
	FP64Throughput float64

	// IntThroughput is the integer/logic operation rate in ops/s.
	IntThroughput float64

	// LaunchLatency is the fixed cost of a kernel launch.
	LaunchLatency time.Duration

	// CopyLatency is the fixed cost of each memory copy or memset call.
	CopyLatency time.Duration
}

// The two evaluation platforms from Table 2 of the paper. Bandwidths and
// throughputs are the published specifications of the parts; they drive the
// cross-platform differences the paper observes (A100's HBM2 bandwidth and
// much higher FP64 rate shrink memory- and FP64-bound speedups).
var (
	RTX2080Ti = Profile{
		Name:           "RTX 2080 Ti",
		SMs:            72, // as reported in Table 2 ("GPU Multiple-processors")
		MemBytes:       11 << 30,
		DRAMBandwidth:  616e9,
		PCIeBandwidth:  12e9,
		FP32Throughput: 13.4e12,
		FP64Throughput: 0.42e12, // 1/32 FP32 rate: the consumer-part FP64 penalty
		IntThroughput:  13.4e12,
		LaunchLatency:  4 * time.Microsecond,
		CopyLatency:    7 * time.Microsecond,
	}
	A100 = Profile{
		Name:           "A100",
		SMs:            108,
		MemBytes:       40 << 30,
		DRAMBandwidth:  1555e9,
		PCIeBandwidth:  24e9,
		FP32Throughput: 19.5e12,
		FP64Throughput: 9.7e12,
		IntThroughput:  19.5e12,
		LaunchLatency:  4 * time.Microsecond,
		CopyLatency:    7 * time.Microsecond,
	}
)

// Profiles returns the built-in device profiles in evaluation order.
func Profiles() []Profile { return []Profile{RTX2080Ti, A100} }

// ProfileByName returns the built-in profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gpu: unknown device profile %q", name)
}

// Device is a simulated GPU: a profile, global memory, and accumulated
// activity counters. A Device is not safe for concurrent use; the runtime
// layer serializes streams onto it, matching ValueExpert's data collector,
// which "serializes concurrent GPU streams" (paper §4).
type Device struct {
	Prof Profile
	Mem  *Memory

	stats Stats
}

// Stats aggregates simulated device activity. Times come from the cost
// model; counts come from actual execution.
type Stats struct {
	KernelLaunches int
	KernelTime     time.Duration

	MemcpyCalls int
	MemcpyBytes uint64
	MemcpyTime  time.Duration

	MemsetCalls int
	MemsetBytes uint64
	MemsetTime  time.Duration

	AllocCalls int
	AllocBytes uint64

	Loads       uint64
	Stores      uint64
	BytesLoaded uint64
	BytesStored uint64
	FP32Ops     uint64
	FP64Ops     uint64
	IntOps      uint64
}

// MemoryTime is the total simulated time of memory operations (allocation
// is folded into copy/set latency as in the paper's "memory time" metric:
// memory allocation, copy, and set).
func (s Stats) MemoryTime() time.Duration { return s.MemcpyTime + s.MemsetTime }

// New constructs a device with the given profile and a fresh memory space.
func New(prof Profile) *Device {
	return &Device{Prof: prof, Mem: NewMemory(prof.MemBytes)}
}

// Stats returns a copy of the accumulated counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears the accumulated counters but leaves memory intact.
func (d *Device) ResetStats() { d.stats = Stats{} }

// KernelCost converts one launch's execution counters into simulated time
// using a roofline: the kernel is bound by either its DRAM traffic or its
// arithmetic, whichever is slower, and pays a fixed launch latency. The
// traffic and op counts are divided across SMs' worth of parallelism
// implicitly by the throughput figures (they are whole-device rates).
func (d *Device) KernelCost(c LaunchCounters) time.Duration {
	// Shared-memory traffic is on-chip and roughly an order of magnitude
	// cheaper than DRAM; charge it at 1/8 of a DRAM byte.
	memBytes := float64(c.BytesLoaded+c.BytesStored) + float64(c.SharedBytes)/8
	memSec := memBytes / d.Prof.DRAMBandwidth
	compSec := float64(c.FP32Ops)/d.Prof.FP32Throughput +
		float64(c.FP64Ops)/d.Prof.FP64Throughput +
		float64(c.IntOps)/d.Prof.IntThroughput
	sec := memSec
	if compSec > sec {
		sec = compSec
	}
	return d.Prof.LaunchLatency + time.Duration(sec*float64(time.Second))
}

// CopyCost is the simulated time of one host<->device or device<->device
// copy call: a fixed latency plus bytes over the link's bandwidth. It is
// the one copy-cost formula: the runtime's copies, the profiler's
// snapshot plans and the Table 5 transfer comparison all price by it.
func (p Profile) CopyCost(bytes uint64, kind CopyKind) time.Duration {
	bw := p.PCIeBandwidth
	if kind == CopyDeviceToDevice {
		bw = p.DRAMBandwidth / 2 // read + write the same DRAM
	}
	return p.CopyLatency + time.Duration(float64(bytes)/bw*float64(time.Second))
}

// MemsetCost is the simulated time of a device memset (DRAM-write bound).
func (d *Device) MemsetCost(bytes uint64) time.Duration {
	return d.Prof.CopyLatency + time.Duration(float64(bytes)/d.Prof.DRAMBandwidth*float64(time.Second))
}

// CopyKind distinguishes the direction of a memory copy.
type CopyKind uint8

// Copy directions.
const (
	CopyHostToDevice CopyKind = iota
	CopyDeviceToHost
	CopyDeviceToDevice
)

// String returns the cudaMemcpyKind-style name.
func (k CopyKind) String() string {
	switch k {
	case CopyHostToDevice:
		return "HostToDevice"
	case CopyDeviceToHost:
		return "DeviceToHost"
	case CopyDeviceToDevice:
		return "DeviceToDevice"
	}
	return fmt.Sprintf("CopyKind(%d)", uint8(k))
}

// RecordAlloc accounts for a device allocation.
func (d *Device) RecordAlloc(bytes uint64) {
	d.stats.AllocCalls++
	d.stats.AllocBytes += bytes
}

// RecordCopy accounts for a copy and returns its simulated duration.
func (d *Device) RecordCopy(bytes uint64, kind CopyKind) time.Duration {
	t := d.Prof.CopyCost(bytes, kind)
	d.stats.MemcpyCalls++
	d.stats.MemcpyBytes += bytes
	d.stats.MemcpyTime += t
	return t
}

// RecordMemset accounts for a memset and returns its simulated duration.
func (d *Device) RecordMemset(bytes uint64) time.Duration {
	t := d.MemsetCost(bytes)
	d.stats.MemsetCalls++
	d.stats.MemsetBytes += bytes
	d.stats.MemsetTime += t
	return t
}

// RecordLaunch accounts for a kernel launch and returns its simulated
// duration.
func (d *Device) RecordLaunch(c LaunchCounters) time.Duration {
	t := d.KernelCost(c)
	d.stats.KernelLaunches++
	d.stats.KernelTime += t
	d.stats.Loads += c.Loads
	d.stats.Stores += c.Stores
	d.stats.BytesLoaded += c.BytesLoaded
	d.stats.BytesStored += c.BytesStored
	d.stats.FP32Ops += c.FP32Ops
	d.stats.FP64Ops += c.FP64Ops
	d.stats.IntOps += c.IntOps
	return t
}
