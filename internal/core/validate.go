package core

import (
	"fmt"

	"valueexpert/internal/interval"
	"valueexpert/internal/vpattern"
)

// ConfigError reports one invalid Config field. Field names the Go
// struct field, so CLI front-ends can map it back to their flag (vxprof
// maps KernelSamplingPeriod → -sample); Reason is the human explanation.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string { return "config: " + e.Field + " " + e.Reason }

// Validate checks the configuration for values with no meaningful
// interpretation, returning a *ConfigError naming the offending field.
// Profile and NewSession validate before attaching and return the error;
// Attach routes through the same validator but keeps its historical
// panic for backward compatibility.
func (cfg *Config) Validate() error {
	if cfg.BufferRecords < 0 {
		return &ConfigError{Field: "BufferRecords",
			Reason: fmt.Sprintf("must be >= 0, got %d (0 = default capacity)", cfg.BufferRecords)}
	}
	if cfg.KernelSamplingPeriod < 0 {
		return &ConfigError{Field: "KernelSamplingPeriod",
			Reason: fmt.Sprintf("must be >= 0, got %d (0 or 1 = every launch)", cfg.KernelSamplingPeriod)}
	}
	if cfg.BlockSamplingPeriod < 0 {
		return &ConfigError{Field: "BlockSamplingPeriod",
			Reason: fmt.Sprintf("must be >= 0, got %d (0 or 1 = every block)", cfg.BlockSamplingPeriod)}
	}
	if cfg.CopyStrategy > interval.AdaptiveCopy {
		return &ConfigError{Field: "CopyStrategy",
			Reason: fmt.Sprintf("unknown strategy %d", cfg.CopyStrategy)}
	}
	if cfg.RetainDeadObjects < 0 {
		return &ConfigError{Field: "RetainDeadObjects",
			Reason: fmt.Sprintf("must be >= 0, got %d (0 = retain every dead object)", cfg.RetainDeadObjects)}
	}
	if cfg.ReuseDistance && !cfg.Coarse && !cfg.Fine {
		return &ConfigError{Field: "ReuseDistance",
			Reason: "requires Coarse or Fine analysis (reuse distance rides the instrumented access stream)"}
	}
	if _, err := vpattern.ParseSet(cfg.Patterns); err != nil {
		return &ConfigError{Field: "Patterns", Reason: err.Error()}
	}
	return nil
}
