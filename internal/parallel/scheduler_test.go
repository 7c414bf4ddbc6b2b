package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valueexpert/internal/telemetry"
)

func TestSchedulerCapacity(t *testing.T) {
	s := NewScheduler(3)
	if s.Capacity() != 3 || s.Idle() != 3 {
		t.Fatalf("capacity=%d idle=%d, want 3/3", s.Capacity(), s.Idle())
	}
	for i := 0; i < 3; i++ {
		if !s.TryAcquire() {
			t.Fatalf("slot %d not available", i)
		}
	}
	if s.TryAcquire() {
		t.Fatal("acquired beyond capacity")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("released slot not reacquirable")
	}
}

func TestSchedulerDefaultsToCPUCount(t *testing.T) {
	if c := NewScheduler(0).Capacity(); c < 1 {
		t.Fatalf("default capacity = %d", c)
	}
	if Shared().Capacity() < 1 {
		t.Fatal("shared scheduler has no capacity")
	}
}

// TestSchedulerBoundsConcurrency: however many goroutines contend, the
// number simultaneously holding a slot never exceeds the capacity.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const capacity, goroutines, rounds = 4, 32, 200
	s := NewScheduler(capacity)
	var active, peak int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for !s.TryAcquire() {
					runtime.Gosched()
				}
				n := atomic.AddInt64(&active, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
						break
					}
				}
				atomic.AddInt64(&active, -1)
				s.Release()
			}
		}()
	}
	wg.Wait()
	if peak > capacity {
		t.Fatalf("observed %d concurrent holders, capacity %d", peak, capacity)
	}
	if s.Idle() != capacity {
		t.Fatalf("leaked slots: idle=%d, capacity=%d", s.Idle(), capacity)
	}
}

// TestPoolsShareScheduler: pools created on one exhausted scheduler
// degrade to sequential execution instead of oversubscribing — the
// process-wide CPU budget holds across independent pools.
func TestPoolsShareScheduler(t *testing.T) {
	s := NewScheduler(1)
	for s.TryAcquire() {
	}
	p := NewPoolOn(s, 8)
	var calls int64
	p.For(100, func(int) { atomic.AddInt64(&calls, 1) })
	if calls != 100 {
		t.Fatalf("sequential fallback ran %d/100 iterations", calls)
	}
}

// TestClearProbesKeepsNewerAttachment: clearing a probe set that another
// caller has since replaced leaves the newer one attached.
func TestClearProbesKeepsNewerAttachment(t *testing.T) {
	s := NewScheduler(1)
	a := &SchedProbes{Acquires: &telemetry.Counter{}}
	b := &SchedProbes{Acquires: &telemetry.Counter{}}
	s.SetProbes(a)
	s.SetProbes(b)
	s.ClearProbes(a)
	if !s.TryAcquire() {
		t.Fatal("slot not available")
	}
	s.Release()
	if a.Acquires.Value() != 0 || b.Acquires.Value() != 1 {
		t.Fatalf("acquires a=%d b=%d, want 0 and 1", a.Acquires.Value(), b.Acquires.Value())
	}
	s.ClearProbes(b)
	s.TryAcquire()
	if b.Acquires.Value() != 1 {
		t.Fatal("cleared probes still observe leases")
	}
}
