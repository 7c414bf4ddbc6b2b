// Package cliconfig is the engine-facing flag surface shared by the
// ValueExpert CLIs: vxprof (one-shot profiling) and vxprofd (the
// multi-tenant service) accept the same analysis flags — -coarse, -fine,
// -kernels, -patterns, -sample, -reuse, -faults, -scale — and must
// reject invalid values with identical messages that speak flag names,
// not Config field names. This package owns that flag→Config
// translation once: registration with shared defaults, validation
// through core's Config.Validate with the typed ConfigError field mapped
// back to its flag, and the -patterns/-faults spec parsing. The engine
// itself has no tuning flags: one analysis goroutine and at most four
// flush buffers (§6.1's double buffering, deepened) per profiler, always.
package cliconfig

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"valueexpert/internal/core"
	"valueexpert/internal/faultinject"
	"valueexpert/internal/vpattern"
)

// Options holds the parsed shared engine flags. The zero value is not
// runnable — Register installs the CLI defaults — but a hand-built
// Options (tests, embedding CLIs) works with any sensible field values.
//
// The JSON tags are the canonical API spelling of each option: every tag
// is the flag name without its dash, so the daemon's POST /v1/sessions
// "options" object and the remote-attach handshake accept exactly the
// vocabulary the CLIs print, and a validation error's Option names both
// the flag and the JSON field at once. The daemon rejects keys outside
// this schema; encoding/json matches them case-insensitively.
type Options struct {
	Coarse        bool   `json:"coarse"`
	Fine          bool   `json:"fine"`
	ReuseDistance bool   `json:"reuse"`
	Kernels       string `json:"kernels"`  // comma-separated kernel filter ("" = all)
	Patterns      string `json:"patterns"` // raw -patterns value ("" = registry defaults)
	Sample        int    `json:"sample"`
	Scale         int    `json:"scale"`  // problem-size divisor for bundled workloads
	Faults        string `json:"faults"` // raw -faults spec ("" = no injection)
}

// OptionError is a rejected option value. Option is the canonical name —
// the flag without its dash and the JSON field of the service API — so
// both surfaces can point at the exact input that failed. The rendered
// message keeps the CLI spelling ("-sample must be >= 1, …").
type OptionError struct {
	Option  string // canonical option name, e.g. "sample"
	Message string // full rendered message, flag-spelled
	cause   error
}

// Error implements error with the flag-spelled message.
func (e *OptionError) Error() string { return e.Message }

// Unwrap exposes the underlying cause (a *core.ConfigError, a parse
// error, …) for errors.As chains.
func (e *OptionError) Unwrap() error { return e.cause }

// optErrf builds an OptionError whose message starts with the flag
// spelling of option.
func optErrf(option string, cause error, format string, args ...any) *OptionError {
	return &OptionError{
		Option:  option,
		Message: "-" + option + " " + fmt.Sprintf(format, args...),
		cause:   cause,
	}
}

// optWrap builds an OptionError in the "-flag: cause" shape used for
// spec-parse failures.
func optWrap(option string, cause error) *OptionError {
	return &OptionError{
		Option:  option,
		Message: fmt.Sprintf("-%s: %v", option, cause),
		cause:   cause,
	}
}

// Register installs the shared flags on fs, bound to o's fields, with
// the defaults both CLIs share.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Coarse, "coarse", true, "enable coarse-grained value pattern analysis")
	fs.BoolVar(&o.Fine, "fine", true, "enable fine-grained value pattern analysis")
	fs.StringVar(&o.Kernels, "kernels", "", "comma-separated kernel filter for fine analysis")
	fs.StringVar(&o.Patterns, "patterns", "", "comma-separated pattern detectors to run (default: all; unknown names list the valid set)")
	fs.IntVar(&o.Sample, "sample", 1, "kernel/block sampling period for fine analysis")
	fs.IntVar(&o.Scale, "scale", 8, "problem-size divisor (1 = full scale)")
	fs.BoolVar(&o.ReuseDistance, "reuse", false, "additionally compute per-kernel reuse-distance histograms")
	fs.StringVar(&o.Faults, "faults", "", "deterministic fault-injection spec, e.g. 'seed=7,prob=0.05' or 'malloc@1,launch@2+16' (see DESIGN.md §8)")
}

// FlagForField maps Config.Validate's typed field names back to the
// flags that set them, so validation errors speak the CLI's vocabulary.
var FlagForField = map[string]string{
	"KernelSamplingPeriod": "-sample",
	"BlockSamplingPeriod":  "-sample",
	"ReuseDistance":        "-reuse",
	"Patterns":             "-patterns",
}

// FlagError rewrites a Config.Validate error to a typed OptionError
// naming the offending flag when the field has a CLI spelling; other
// errors pass through.
func FlagError(err error) error {
	var ce *core.ConfigError
	if errors.As(err, &ce) {
		if f, ok := FlagForField[ce.Field]; ok {
			return &OptionError{
				Option:  strings.TrimPrefix(f, "-"),
				Message: fmt.Sprintf("%s %s", f, ce.Reason),
				cause:   ce,
			}
		}
	}
	return err
}

// Validate rejects flag values with no meaningful interpretation.
// Engine settings go through Config.Validate — the same validator
// Profile and NewSession run — with the typed ConfigError field mapped
// back to the flag name; CLI-only constraints (-sample >= 1, -scale)
// stay local because the engine treats 0 as "default" where the CLI has
// no such spelling.
func (o *Options) Validate() error {
	if o.Sample < 1 {
		return optErrf("sample", nil, "must be >= 1, got %d (1 = profile every kernel and block)", o.Sample)
	}
	if o.Scale < 1 {
		return optErrf("scale", nil, "must be >= 1, got %d (1 = full problem size)", o.Scale)
	}
	cfg := core.Config{
		Coarse:               o.Coarse,
		Fine:                 o.Fine,
		ReuseDistance:        o.ReuseDistance,
		KernelSamplingPeriod: o.Sample,
		BlockSamplingPeriod:  o.Sample,
	}
	if err := cfg.Validate(); err != nil {
		return FlagError(err)
	}
	if _, err := o.PatternList(); err != nil {
		return err
	}
	if _, err := o.FaultPlan(); err != nil {
		return err
	}
	return nil
}

// PatternList turns the -patterns value into a validated name list. The
// empty flag selects the registry's default set (nil); unknown names are
// rejected with the valid set listed.
func (o *Options) PatternList() ([]string, error) {
	if strings.TrimSpace(o.Patterns) == "" {
		return nil, nil
	}
	names := []string{}
	for _, n := range strings.Split(o.Patterns, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if _, err := vpattern.ParseSet(names); err != nil {
		return nil, optWrap("patterns", err)
	}
	return names, nil
}

// FaultPlan turns the -faults spec into an armed-ready fault plan; the
// empty flag means no injection (nil plan).
func (o *Options) FaultPlan() (*faultinject.Plan, error) {
	if strings.TrimSpace(o.Faults) == "" {
		return nil, nil
	}
	plan, err := faultinject.ParseSpec(o.Faults)
	if err != nil {
		return nil, optWrap("faults", err)
	}
	return plan, nil
}

// KernelFilter builds the kernel-name predicate from the -kernels list,
// nil when the flag is empty (profile every kernel).
func (o *Options) KernelFilter() func(string) bool {
	if o.Kernels == "" {
		return nil
	}
	set := map[string]bool{}
	for _, k := range strings.Split(o.Kernels, ",") {
		set[strings.TrimSpace(k)] = true
	}
	return func(name string) bool { return set[name] }
}

// EngineConfig builds the engine configuration for the named program.
// Patterns must already have passed Validate; an invalid set errors here
// too rather than panicking downstream.
func (o *Options) EngineConfig(program string) (core.Config, error) {
	patterns, err := o.PatternList()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Coarse:               o.Coarse,
		Fine:                 o.Fine,
		ReuseDistance:        o.ReuseDistance,
		Patterns:             patterns,
		KernelFilter:         o.KernelFilter(),
		KernelSamplingPeriod: o.Sample,
		BlockSamplingPeriod:  o.Sample,
		Program:              program,
	}, nil
}
