package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{0, 1, 3, 7, 100, 1001} {
		seen := make([]int32, n)
		p.For(n, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	p := NewPool(3)
	var mu []int
	pLock := make(chan struct{}, 1)
	pLock <- struct{}{}
	p.ForChunks(10, func(lo, hi int) {
		<-pLock
		for i := lo; i < hi; i++ {
			mu = append(mu, i)
		}
		pLock <- struct{}{}
	})
	if len(mu) != 10 {
		t.Fatalf("covered %d indices, want 10", len(mu))
	}
	sort.Ints(mu)
	for i, v := range mu {
		if i != v {
			t.Fatalf("missing index %d", i)
		}
	}
}

func TestInclusiveScanSmall(t *testing.T) {
	p := NewPool(4)
	xs := []int64{1, -2, 3, 0, 5}
	p.InclusiveScan(xs)
	want := []int64{1, -1, 2, 2, 7}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
}

func TestInclusiveScanEmpty(t *testing.T) {
	NewPool(4).InclusiveScan(nil)
}

func TestExclusiveScan(t *testing.T) {
	p := NewPool(4)
	xs := []int64{2, 3, 4}
	total := p.ExclusiveScan(xs)
	if total != 9 {
		t.Fatalf("total = %d, want 9", total)
	}
	want := []int64{0, 2, 5}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("exclusive scan[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
}

// Property: parallel inclusive scan matches the sequential definition for
// any input and any worker count.
func TestInclusiveScanMatchesSequential(t *testing.T) {
	f := func(raw []int16, workers uint8) bool {
		xs := make([]int64, len(raw))
		ref := make([]int64, len(raw))
		var run int64
		for i, v := range raw {
			xs[i] = int64(v)
			run += int64(v)
			ref[i] = run
		}
		NewPool(int(workers%16) + 1).InclusiveScan(xs)
		for i := range xs {
			if xs[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxUint64(t *testing.T) {
	p := NewPool(4)
	if got := p.MaxUint64(nil); got != 0 {
		t.Fatalf("max of empty = %d, want 0", got)
	}
	xs := []uint64{3, 9, 1, 9, 2}
	if got := p.MaxUint64(xs); got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
}

func TestRadixSortMatchesSortSlice(t *testing.T) {
	f := func(raw []uint64, workers uint8) bool {
		got := append([]uint64(nil), raw...)
		want := append([]uint64(nil), raw...)
		NewPool(int(workers%8) + 1).RadixSortUint64(got)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSortLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200_000
	base := make([]uint64, n)
	for i := range base {
		base[i] = rng.Uint64()
	}
	want := append([]uint64(nil), base...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	// Exercise both the GOMAXPROCS default and an explicit multi-worker
	// pool (the chunked-histogram parallel path).
	for _, workers := range []int{0, 4, 7} {
		got := append([]uint64(nil), base...)
		NewPool(workers).RadixSortUint64(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mismatch at %d", workers, i)
			}
		}
	}
}

func TestRadixSortSmallKeysEarlyExit(t *testing.T) {
	// Keys fitting in one byte exercise the high-digit early exit on the
	// parallel path.
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64((i * 37) % 251)
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	NewPool(4).RadixSortUint64(keys)
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestPoolWorkers(t *testing.T) {
	if NewPool(3).Workers() != 3 {
		t.Fatal("explicit workers")
	}
	if got, want := NewPool(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestPoolsRunConcurrently: independent pools used from many goroutines at
// once — the way concurrent vxprofd sessions run their merges — each
// produce exactly the sequential result. Run under -race this also shows
// the pools share no state.
func TestPoolsRunConcurrently(t *testing.T) {
	const goroutines, n = 8, 4096 // n above the radix sort's sequential cutoff
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := NewPool(4)

			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			p.RadixSortUint64(keys)
			for i := range keys {
				if keys[i] != want[i] {
					errs <- fmt.Errorf("seed %d: sort mismatch at %d", seed, i)
					return
				}
			}

			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(1000) - 500
			}
			scan := append([]int64(nil), xs...)
			p.InclusiveScan(scan)
			var run int64
			for i, x := range xs {
				run += x
				if scan[i] != run {
					errs <- fmt.Errorf("seed %d: scan[%d] = %d, want %d", seed, i, scan[i], run)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Stability matters for the interval merge: keys that encode (addr, isEnd)
// must keep end-after-start ordering for equal addresses. Equal full keys
// are indistinguishable, so we check stability indirectly: sorting keys that
// differ only in the low bit keeps low-bit-0 before low-bit-1.
func TestRadixSortOrdersEndAfterStart(t *testing.T) {
	keys := []uint64{(100 << 1) | 1, 100 << 1, (50 << 1) | 1, 50 << 1}
	NewPool(2).RadixSortUint64(keys)
	want := []uint64{50 << 1, (50 << 1) | 1, 100 << 1, (100 << 1) | 1}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func BenchmarkRadixSortParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	p := NewPool(0)
	scratch := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, keys)
		p.RadixSortUint64(scratch)
	}
}

func BenchmarkInclusiveScanParallel(b *testing.B) {
	xs := make([]int64, 1<<20)
	for i := range xs {
		xs[i] = int64(i % 3)
	}
	p := NewPool(0)
	scratch := make([]int64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, xs)
		p.InclusiveScan(scratch)
	}
}
