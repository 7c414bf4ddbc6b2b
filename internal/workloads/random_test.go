package workloads

import (
	"errors"
	"reflect"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/faultinject"
)

func TestRandomScheduleIsPureFunctionOfSeed(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{0, 1, 7, 12345} {
		p := &RandomProgram{Seed: seed}
		a, b := p.schedule(), p.schedule()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule differs between draws", seed)
		}
		if len(a) != DefaultRandomOps {
			t.Fatalf("seed %d: schedule length %d, want %d", seed, len(a), DefaultRandomOps)
		}
		if a[0].kind != opAlloc || a[1].kind != opH2D || a[2].kind != opLaunch {
			t.Fatalf("seed %d: schedule missing forced alloc/fill/launch prefix", seed)
		}
	}
	if !reflect.DeepEqual((&RandomProgram{Seed: 3}).schedule(), (&RandomProgram{Seed: 3, Tolerant: true}).schedule()) {
		t.Fatal("tolerance must not change the drawn schedule")
	}
	if reflect.DeepEqual((&RandomProgram{Seed: 3}).schedule(), (&RandomProgram{Seed: 4}).schedule()) {
		t.Fatal("different seeds drew identical schedules")
	}
}

func TestRandomProgramRunsCleanWithoutFaults(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{0, 1, 2, 3, 4, 5, 42, 99} {
		rt := cuda.NewRuntime(gpu.RTX2080Ti)
		p := &RandomProgram{Seed: seed, Tolerant: true}
		if errs := p.Run(rt); len(errs) != 0 {
			t.Fatalf("seed %d: clean run reported %d errors, first: %v", seed, len(errs), errs[0])
		}
	}
}

func TestRandomProgramTolerantSurvivesFaults(t *testing.T) {
	t.Parallel()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	plan := faultinject.New()
	plan.FailNth(faultinject.Malloc, 1)
	plan.FailNth(faultinject.Memcpy, 1)
	plan.FailLaunchNth(1, 0)
	rt.ArmFaults(plan)
	p := &RandomProgram{Seed: 11, Tolerant: true}
	errs := p.Run(rt)
	if len(errs) < 2 {
		t.Fatalf("tolerant run under 3 injected faults collected %d errors, want >= 2", len(errs))
	}
	for _, err := range errs {
		var ce *cuda.Error
		if !errors.As(err, &ce) {
			t.Fatalf("collected error is not a *cuda.Error: %v", err)
		}
	}
}

func TestRandomProgramIntolerantStopsAtFirstError(t *testing.T) {
	t.Parallel()
	rt := cuda.NewRuntime(gpu.RTX2080Ti)
	plan := faultinject.New()
	plan.FailNth(faultinject.Malloc, 1)
	rt.ArmFaults(plan)
	p := &RandomProgram{Seed: 11}
	errs := p.Run(rt)
	if len(errs) != 1 {
		t.Fatalf("intolerant run returned %d errors, want exactly 1", len(errs))
	}
	var ce *cuda.Error
	if !errors.As(errs[0], &ce) || ce.Code != cuda.ErrOOM {
		t.Fatalf("first error = %v, want injected OOM", errs[0])
	}
}
