package core

import (
	"errors"
	"strings"
	"testing"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/interval"
)

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{Coarse: true, Fine: true, ReuseDistance: true},
		{BufferRecords: 1 << 20, KernelSamplingPeriod: 4, BlockSamplingPeriod: 2},
		{Coarse: true, CopyStrategy: interval.AdaptiveCopy},
		{Fine: true, Patterns: []string{"single zero", "heavy type"}},
	}
	for i, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		cfg   Config
		field string
	}{
		{Config{BufferRecords: -64}, "BufferRecords"},
		{Config{KernelSamplingPeriod: -1}, "KernelSamplingPeriod"},
		{Config{BlockSamplingPeriod: -5}, "BlockSamplingPeriod"},
		{Config{CopyStrategy: interval.AdaptiveCopy + 1}, "CopyStrategy"},
		{Config{ReuseDistance: true}, "ReuseDistance"},
		{Config{Coarse: true, Patterns: []string{"bogus"}}, "Patterns"},
	}
	for _, tc := range invalid {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("field %s: invalid config accepted", tc.field)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("field %s: error %T is not a *ConfigError", tc.field, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("field = %q, want %q", ce.Field, tc.field)
		}
		if !strings.Contains(err.Error(), "config: "+tc.field) {
			t.Errorf("message %q does not name the field", err)
		}
	}
}

// TestProfileRejectsInvalidConfig: the entry points return the
// validation error instead of panicking mid-attach.
func TestProfileRejectsInvalidConfig(t *testing.T) {
	src := cuda.NewLiveSource(cuda.NewRuntime(gpu.RTX2080Ti), func(rt *cuda.Runtime) error {
		t.Fatal("source ran despite invalid config")
		return nil
	})
	_, err := Profile(src, Config{BufferRecords: -3})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "BufferRecords" {
		t.Fatalf("Profile error = %v", err)
	}

	if _, err := NewSession(Config{KernelSamplingPeriod: -1}, gpu.A100); err == nil {
		t.Fatal("NewSession accepted invalid config")
	}
}

// TestAttachPanicsOnInvalidConfig: Attach keeps its historical panic but
// routes through the same validator.
func TestAttachPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Attach did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "BufferRecords") {
			t.Fatalf("panic = %v", r)
		}
	}()
	Attach(cuda.NewRuntime(gpu.RTX2080Ti), Config{BufferRecords: -1})
}
