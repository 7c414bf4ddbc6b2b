package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/interval"
	"valueexpert/internal/profile"
	"valueexpert/internal/vflow"
)

// Synthetic coarse launches touch coarseObjs allocations of coarseObjSize
// bytes each through coarseStreams interleaved streams: every (object,
// direction) pair plus a second load stream per object. With more open
// streams than the six run slots, runs get evicted.
const (
	coarseObjs    = 4
	coarseObjSize = 1 << 12
	coarseStreams = 12
	// coarseMaxRec bounds one record's bytes (8-byte elements, Count 33).
	coarseMaxRec = 8 * 33
)

// newTestCoarse returns a coarse stage on a fresh runtime holding
// coarseObjs allocations, each announced to the stage so it keeps a
// snapshot, with their base addresses and IDs.
func newTestCoarse(t testing.TB) (*coarseStage, []uint64, []int) {
	t.Helper()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	tree := callpath.NewTree()
	s := newCoarseStage(Env{RT: rt, Tree: tree, Graph: vflow.New(tree),
		Cfg: &Config{Coarse: true, CopyStrategy: interval.AdaptiveCopy}})
	var bases []uint64
	var ids []int
	for k := 0; k < coarseObjs; k++ {
		p, err := rt.Malloc(coarseObjSize, fmt.Sprint("obj", k))
		if err != nil {
			t.Fatal(err)
		}
		s.APIEnd(&cuda.APIEvent{Kind: cuda.APIMalloc, Dst: uint64(p)})
		bases = append(bases, uint64(p))
		ids = append(ids, rt.Device().Mem.Lookup(uint64(p)).ID)
	}
	return s, bases, ids
}

// coarseBatch decodes data, three bytes per record, into one resolved
// batch over the objects at bases (IDs ids):
//
//	b0 bits 0–3  stream: 0–11 a cursor stream (object s%4, stores for
//	             s in 4–7), 12–13 an unresolved record (ID -1), 14–15
//	             shared memory (ID 0)
//	b0 bits 4–5  element size 1, 2, 4 or 8
//	b0 bits 6–7  Count 0, 1, 4, or 2 + b2%32
//	b1           < 160 continue at the cursor; < 208 step back up to 7
//	             elements (overlap); else jump to an offset from b1, b2
//
// A cursor stream's addresses stay inside its object, and each record
// leaves its stream's cursor at its end.
func coarseBatch(data []byte, bases []uint64, ids []int) *Batch {
	var cursor [16]uint64
	b := &Batch{}
	for ; len(data) >= 3; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		s := int(b0 & 0x0f)
		a := gpu.Access{Size: 1 << (b0 >> 4 & 3), Kind: gpu.KindUint, Raw: uint64(b2)}
		switch b0 >> 6 {
		case 1:
			a.Count = 1
		case 2:
			a.Count = 4
		case 3:
			a.Count = 2 + uint32(b2%32)
		}
		off := cursor[s]
		switch {
		case b1 < 160:
		case b1 < 208:
			off -= min(off, uint64(b1%8)*uint64(a.Size))
		default:
			off = (uint64(b1-208)<<8 | uint64(b2)) * uint64(a.Size)
		}
		off %= coarseObjSize - coarseMaxRec
		cursor[s] = off + a.Bytes()
		a.Addr = off
		id := -1
		switch {
		case s < coarseStreams:
			a.Store = s/coarseObjs == 1
			a.Addr += bases[s%coarseObjs]
			id = ids[s%coarseObjs]
		case s >= 14:
			id = 0
		}
		a.Obj = int32(id)
		b.Recs = append(b.Recs, a)
	}
	return b
}

// coarseRef is one object's plain reference: every load's bytes summed
// and every store's interval, unmerged.
type coarseRef struct {
	readB  uint64
	writes []interval.Interval
}

func coarseReference(b *Batch) map[int]*coarseRef {
	ref := map[int]*coarseRef{}
	for _, a := range b.Recs {
		id := int(a.Obj)
		if id < 0 {
			continue
		}
		r := ref[id]
		if r == nil {
			r = &coarseRef{}
			ref[id] = r
		}
		if a.Store {
			r.writes = append(r.writes, interval.FromAccess(a))
		} else {
			r.readB += a.Bytes()
		}
	}
	return ref
}

// checkCoarseLaunches profiles each of launches (coarseBatch encodings)
// in turn on one fresh stage, feeding each launch in batches of chunk
// records, and checks every launch's accumulator and coarse record
// against the plain reference: the same objects, read bytes equal to the
// loads' sum, and write runs that merge to exactly the stores' merged
// intervals. It returns the stage's records.
func checkCoarseLaunches(t testing.TB, launches [][]byte, chunk int) []profile.CoarseRecord {
	t.Helper()
	s, bases, ids := newTestCoarse(t)
	for n, data := range launches {
		b := coarseBatch(data, bases, ids)
		ref := coarseReference(b)
		la := s.LaunchBegin("k").(*coarseLaunch)
		for lo := 0; lo < len(b.Recs); lo += chunk {
			hi := min(lo+chunk, len(b.Recs))
			la.Analyze(&Batch{Recs: b.Recs[lo:hi]})
		}
		var want []profile.ObjectAccess
		got := la.objs.IDs()
		if len(got) != len(ref) {
			t.Fatalf("launch %d, %d-record batches: objects %v, reference has %d", n, chunk, got, len(ref))
		}
		for _, id := range got {
			o, r := la.objs.Get(id), ref[id]
			if r == nil {
				t.Fatalf("launch %d, %d-record batches: object %d has no records", n, chunk, id)
			}
			merged := interval.MergeSequential(r.writes)
			if o.readB != r.readB || !slices.Equal(interval.MergeSequential(o.writes), merged) {
				t.Fatalf("launch %d, %d-record batches: object %d read %d bytes, wrote %v; reference %d, %v",
					n, chunk, id, o.readB, interval.MergeSequential(o.writes), r.readB, merged)
			}
			if id != 0 && (r.readB > 0 || len(merged) > 0) {
				want = append(want, profile.ObjectAccess{ObjectID: id, ReadBytes: r.readB,
					WrittenBytes: interval.TotalBytes(merged)})
			}
		}
		s.LaunchEnd(&cuda.APIEvent{Kind: cuda.APILaunch, Name: "k", Seq: n}, la)
		var rec []profile.ObjectAccess
		for _, oa := range s.records[len(s.records)-1].Objects {
			rec = append(rec, profile.ObjectAccess{ObjectID: oa.ObjectID, ReadBytes: oa.ReadBytes, WrittenBytes: oa.WrittenBytes})
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("launch %d, %d-record batches: record %+v, reference %+v", n, chunk, rec, want)
		}
	}
	return s.records
}

// coarseCases are the reference test's launch sequences, three launches
// each. The last is long enough for 4096-record batches to split it; the
// others seed FuzzCoarseLaunch, small so the fuzzer's executions stay
// fast.
func coarseCases() [][][]byte {
	rng := rand.New(rand.NewSource(43))
	var cases [][][]byte
	for _, records := range []int{40, 200, 600, 6000} {
		var launches [][]byte
		for l := 0; l < 3; l++ {
			data := make([]byte, 3*(records/2+rng.Intn(records)))
			rng.Read(data)
			launches = append(launches, data)
		}
		cases = append(cases, launches)
	}
	return cases
}

// TestCoarseLaunchMatchesReference: the coarse accumulator matches a
// plain per-object reference over random launches with several objects,
// loads and stores, overlaps and gaps, more streams than run slots and
// records with IDs -1 and 0, and splitting a launch into batches of any
// size leaves every coarse record as it was, unchanged bytes included.
func TestCoarseLaunchMatchesReference(t *testing.T) {
	for c, launches := range coarseCases() {
		want := checkCoarseLaunches(t, launches, 1<<30)
		for _, chunk := range []int{1, 7, 128, 4096} {
			if got := checkCoarseLaunches(t, launches, chunk); !reflect.DeepEqual(got, want) {
				t.Errorf("case %d, %d-record batches: records diverged from one batch", c, chunk)
			}
		}
	}
}

// FuzzCoarseLaunch checks arbitrary launches against the reference the
// way TestCoarseLaunchMatchesReference does: data is split into two
// launches on one stage, and batches of chunk records must give the
// records of one batch.
func FuzzCoarseLaunch(f *testing.F) {
	cases := coarseCases()
	for _, launches := range cases[:len(cases)-1] {
		for _, chunk := range []uint16{1, 7, 128} {
			f.Add(slices.Concat(launches[0], launches[1]), chunk)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		half := len(data) / 6 * 3
		launches := [][]byte{data[:half], data[half:]}
		want := checkCoarseLaunches(t, launches, 1<<30)
		if got := checkCoarseLaunches(t, launches, 1+int(chunk)); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-record batches: records diverged from one batch", 1+int(chunk))
		}
	})
}

// TestCoarseAnalyzeAllocsFree: once warm, a coarse launch's reset and
// batch accumulation allocate nothing.
func TestCoarseAnalyzeAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, bases, ids := newTestCoarse(t)
	data := coarseCases()[0][0]
	b := coarseBatch(data, bases, ids)
	launch := func() { s.LaunchBegin("k").Analyze(b) }
	launch() // warm the object table and the write runs
	if allocs := testing.AllocsPerRun(20, launch); allocs != 0 {
		t.Fatalf("coarse launch allocated %.1f times once warm, want 0", allocs)
	}
}

// TestCoarseLaunchReuse: the coarse accumulator is reused across
// launches, so a launch's records must not depend on what earlier
// launches left behind. A kernel that faults mid-execution (Drain drops
// its accumulators without LaunchEnd) and one that is sampled out come
// before a clean launch, whose coarse record must equal a fresh
// profiler's. The kernel writes the same values on every launch, so the
// device memory the clean launch diffs against is the same in both runs.
func TestCoarseLaunchReuse(t *testing.T) {
	const n = 2048
	profileLaunches := func(launches int, plan *faultinject.Plan) profile.CoarseRecord {
		var rep *profile.Report
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // a fresh goroutine, so both runs share call paths
			defer wg.Done()
			rt := cuda.NewRuntime(gpu.RTX2080Ti)
			rt.ArmFaults(plan)
			p := Attach(rt, Config{Coarse: true, BufferRecords: 64, KernelSamplingPeriod: 2})
			defer p.Detach()
			x, _ := rt.Malloc(4*n, "x")
			y, _ := rt.Malloc(4*n, "y")
			k := &gpu.GoKernel{Name: "scale", Func: func(th *gpu.Thread) {
				i := uint64(th.GlobalID())
				th.StoreF32(1, uint64(y)+4*i, 2*th.LoadF32(0, uint64(x)+4*i)+1)
			}}
			for l := 0; l < launches; l++ {
				_ = rt.Launch(k, gpu.Dim1(n/128), gpu.Dim1(128))
			}
			rep = p.Report()
		}()
		wg.Wait()
		var kernels []profile.CoarseRecord
		for _, rec := range rep.Coarse {
			if rec.Name == "scale" {
				kernels = append(kernels, rec)
			}
		}
		if len(kernels) != 1 || len(kernels[0].Objects) == 0 {
			t.Fatalf("%d launches: kernel records %+v, want one with objects", launches, kernels)
		}
		return kernels[0]
	}
	fresh := profileLaunches(1, nil)
	reused := profileLaunches(3, faultinject.New().FailLaunchNth(1, 100))
	reused.Seq = fresh.Seq // the reused run's launch comes later in the stream
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("clean launch after a faulted and a sampled-out one:\n%+v\nfresh profiler:\n%+v", reused, fresh)
	}
}
