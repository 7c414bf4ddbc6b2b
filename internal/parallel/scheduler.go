package parallel

import (
	"runtime"
	"sync/atomic"

	"valueexpert/internal/telemetry"
)

// Scheduler is a process-wide budget of analysis worker slots. Every
// source of host-side analysis parallelism — interval-merge pool chunks,
// snapshot-diff chunks — leases slots from one shared scheduler, so N
// concurrent profilers (or a multi-GPU Session) divide one CPU budget
// between them instead of each spawning GOMAXPROCS workers and
// oversubscribing the machine.
//
// Leases never block: pool operations use TryAcquire for their helper
// goroutines, and the calling goroutine always participates in the work,
// so when no slots are free the operation degrades to sequential
// execution on the caller. Every slot holder runs straight-line work to
// completion, so slots always recirculate and no lease can wait on
// another lease.
type Scheduler struct {
	slots chan struct{}

	// probes, when attached, observe slot traffic. The pointer is atomic
	// because the shared scheduler serves every profiler in the process
	// while any of them may attach telemetry.
	probes atomic.Pointer[SchedProbes]
}

// SchedProbes are the scheduler's telemetry hooks: how often slots are
// leased and how many are in use at each lease. Individual fields may be
// nil (nil probes no-op).
type SchedProbes struct {
	// Acquires counts successful leases.
	Acquires *telemetry.Counter
	// InUse samples the number of leased slots after each lease — the
	// scheduler's utilization gauge.
	InUse *telemetry.Gauge
}

// SetProbes attaches telemetry probes to the scheduler. The process-wide
// shared scheduler is a singleton, so when several profilers attach
// probes the last attachment wins — acceptable for the common
// one-profiler case this instrument serves.
func (s *Scheduler) SetProbes(p *SchedProbes) { s.probes.Store(p) }

// ClearProbes detaches p if it is still the attached probe set; probes
// another caller attached since stay.
func (s *Scheduler) ClearProbes(p *SchedProbes) { s.probes.CompareAndSwap(p, nil) }

// NewScheduler creates a scheduler with the given number of slots.
// capacity <= 0 selects GOMAXPROCS.
func NewScheduler(capacity int) *Scheduler {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{slots: make(chan struct{}, capacity)}
	for i := 0; i < capacity; i++ {
		s.slots <- struct{}{}
	}
	return s
}

// shared is the process-wide scheduler all pools default to.
var shared = NewScheduler(0)

// Shared returns the process-wide scheduler.
func Shared() *Scheduler { return shared }

// Capacity reports the total number of slots.
func (s *Scheduler) Capacity() int { return cap(s.slots) }

// Idle reports the number of currently unleased slots.
func (s *Scheduler) Idle() int { return len(s.slots) }

// TryAcquire leases a slot if one is free, without blocking.
func (s *Scheduler) TryAcquire() bool {
	select {
	case <-s.slots:
		s.observeAcquire()
		return true
	default:
		return false
	}
}

// observeAcquire records a successful lease on the attached probes.
func (s *Scheduler) observeAcquire() {
	if p := s.probes.Load(); p != nil {
		p.Acquires.Inc()
		p.InUse.Observe(int64(cap(s.slots) - len(s.slots)))
	}
}

// Release returns a leased slot.
func (s *Scheduler) Release() { s.slots <- struct{}{} }
