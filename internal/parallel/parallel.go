// Package parallel provides the data-parallel primitives ValueExpert's
// online analyzer dispatches to the GPU in the original system: prefix
// scans, radix sorts, reductions, and a chunked parallel-for.
//
// On real hardware these run as data-processing kernels occupying dedicated
// streaming multiprocessors (paper §6.1), and the hardware bounds how many
// run at once. Here each operation keeps the same structure (block-local
// work + cross-block combine) and the same asymptotics, its blocks run on
// goroutines the pool starts itself, and the Go runtime bounds how many of
// them run at once to GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool partitions data-parallel operations into chunks. The chunk layout —
// and therefore every result — depends only on the pool's configured
// width: helpers only change which goroutine executes a chunk. The zero
// value is not usable; construct with NewPool.
type Pool struct {
	workers int
}

// NewPool returns a Pool with the given degree of parallelism. workers <= 0
// selects GOMAXPROCS, one analysis block per available processor.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's degree of parallelism.
func (p *Pool) Workers() int { return p.workers }

// run executes fn(c) for every chunk index in [0, nChunks). The calling
// goroutine always participates, alongside min(workers, nChunks)-1 helper
// goroutines. Chunks are claimed from a shared counter, which is safe
// because every operation writes each chunk's result to a slot determined
// by the chunk index alone.
func (p *Pool) run(nChunks int, fn func(c int)) {
	if nChunks <= 0 {
		return
	}
	helpers := p.workers - 1
	if helpers > nChunks-1 {
		helpers = nChunks - 1
	}
	if helpers <= 0 {
		for c := 0; c < nChunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				fn(c)
			}
		}()
	}
	for {
		c := int(next.Add(1)) - 1
		if c >= nChunks {
			break
		}
		fn(c)
	}
	wg.Wait()
}

// chunking returns the chunk size and count for n items: at most Workers
// contiguous ranges, so results are bit-stable whichever goroutine runs
// each chunk.
func (p *Pool) chunking(n int) (chunk, nChunks int) {
	w := p.workers
	if w > n {
		w = n
	}
	chunk = (n + w - 1) / w
	nChunks = (n + chunk - 1) / chunk
	return chunk, nChunks
}

// For runs fn(i) for every i in [0, n), partitioning the index space into
// contiguous chunks, one per worker. fn must be safe to call concurrently
// for distinct indices.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunks splits [0, n) into at most Workers contiguous ranges and runs
// fn(lo, hi) for each range.
func (p *Pool) ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk, nChunks := p.chunking(n)
	p.run(nChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// MapChunks splits [0, n) into at most p.Workers() contiguous ranges, runs
// fn(lo, hi) for each range, and returns the per-range results in range
// order — the map half of a map-reduce whose combine the caller performs
// deterministically over the ordered partials.
func MapChunks[T any](p *Pool, n int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	chunk, nChunks := p.chunking(n)
	out := make([]T, nChunks)
	p.run(nChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		out[c] = fn(lo, hi)
	})
	return out
}

// InclusiveScan replaces each element of xs with the sum of all elements up
// to and including it. It is the parallel prefix scan from Figure 4 of the
// paper: per-chunk local scans, an exclusive scan of the chunk totals, and a
// parallel fix-up pass.
func (p *Pool) InclusiveScan(xs []int64) {
	n := len(xs)
	if n == 0 {
		return
	}
	chunk, nChunks := p.chunking(n)
	if nChunks == 1 {
		var run int64
		for i := range xs {
			run += xs[i]
			xs[i] = run
		}
		return
	}
	totals := make([]int64, nChunks)
	p.run(nChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		var run int64
		for i := lo; i < hi; i++ {
			run += xs[i]
			xs[i] = run
		}
		totals[c] = run
	})

	// Exclusive scan of chunk totals (small; sequential).
	var run int64
	for c := range totals {
		t := totals[c]
		totals[c] = run
		run += t
	}

	p.run(nChunks-1, func(c int) {
		c++ // chunk 0 needs no fix-up
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		off := totals[c]
		for i := lo; i < hi; i++ {
			xs[i] += off
		}
	})
}

// ExclusiveScan replaces xs[i] with the sum of xs[0:i] and returns the total
// sum of the original slice.
func (p *Pool) ExclusiveScan(xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p.InclusiveScan(xs)
	total := xs[n-1]
	copy(xs[1:], xs[:n-1])
	xs[0] = 0
	return total
}

// MaxUint64 returns the maximum element of xs, or 0 for an empty slice.
func (p *Pool) MaxUint64(xs []uint64) uint64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	partials := MapChunks(p, n, func(lo, hi int) uint64 {
		m := xs[lo]
		for i := lo + 1; i < hi; i++ {
			if xs[i] > m {
				m = xs[i]
			}
		}
		return m
	})
	m := partials[0]
	for _, v := range partials[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
