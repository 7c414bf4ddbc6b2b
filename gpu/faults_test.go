package gpu

import (
	"errors"
	"fmt"
	"testing"
)

func TestAccessSizeErrors(t *testing.T) {
	dev := New(RTX2080Ti)
	a, _ := dev.Mem.Alloc(64, "a")

	var sizeErr *AccessSizeError
	if _, err := dev.Mem.LoadRaw(a.Addr, 3); !errors.As(err, &sizeErr) || sizeErr.Size != 3 {
		t.Fatalf("LoadRaw size 3: err = %v", err)
	}
	if err := dev.Mem.StoreRaw(a.Addr, 5, 1); !errors.As(err, &sizeErr) || sizeErr.Size != 5 {
		t.Fatalf("StoreRaw size 5: err = %v", err)
	}
	if _, err := rawLoad(make([]byte, 8), 7); !errors.As(err, &sizeErr) || sizeErr.Size != 7 {
		t.Fatalf("rawLoad size 7: err = %v", err)
	}

	// Supported widths stay intact.
	for _, size := range []uint8{1, 2, 4, 8} {
		if err := dev.Mem.StoreRaw(a.Addr, size, 0x2a); err != nil {
			t.Fatalf("StoreRaw size %d: %v", size, err)
		}
		if v, err := dev.Mem.LoadRaw(a.Addr, size); err != nil || v != 0x2a {
			t.Fatalf("LoadRaw size %d = %d, %v", size, v, err)
		}
	}
}

// TestAbortReturnsError: a kernel aborted via Abort (the fault injector's
// mid-kernel kill) surfaces the error at the launch boundary instead of
// panicking out of Execute.
func TestAbortReturnsError(t *testing.T) {
	dev := New(RTX2080Ti)
	cause := fmt.Errorf("injected abort")
	k := &GoKernel{
		Name: "aborter",
		Func: func(th *Thread) {
			if th.GlobalID() == 3 {
				Abort(cause)
			}
		},
	}
	var ctr LaunchCounters
	err := k.Execute(dev, Dim1(1), Dim1(8), nil, nil, &ctr)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("Execute error = %v, want wrapped %v", err, cause)
	}
}

func TestFaultFrom(t *testing.T) {
	cause := fmt.Errorf("boom")
	func() {
		defer func() {
			err, ok := FaultFrom(recover())
			if !ok || err != cause {
				t.Errorf("FaultFrom = %v, %v", err, ok)
			}
		}()
		Abort(cause)
	}()
	if err, ok := FaultFrom("not a fault"); ok || err != nil {
		t.Fatalf("FaultFrom on foreign panic value = %v, %v", err, ok)
	}
	if err, ok := FaultFrom(nil); ok || err != nil {
		t.Fatalf("FaultFrom(nil) = %v, %v", err, ok)
	}
}
