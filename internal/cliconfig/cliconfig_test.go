package cliconfig

import (
	"encoding/json"
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// defaults returns an Options carrying the flag defaults, the way both
// CLIs obtain them: through Register on a throwaway FlagSet.
func defaults(t *testing.T) *Options {
	t.Helper()
	o := &Options{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRegisterDefaults(t *testing.T) {
	o := defaults(t)
	if !o.Coarse || !o.Fine || o.ReuseDistance {
		t.Fatalf("analysis defaults: %+v", o)
	}
	if o.Sample != 1 || o.Scale != 8 {
		t.Fatalf("numeric defaults: %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestValidate(t *testing.T) {
	valid := defaults(t)
	valid.Sample, valid.Scale = 20, 1
	valid.ReuseDistance = true
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid settings rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Options)
		flag string
	}{
		{"zero sample", func(o *Options) { o.Sample = 0 }, "-sample"},
		{"negative sample", func(o *Options) { o.Sample = -5 }, "-sample"},
		{"zero scale", func(o *Options) { o.Scale = 0 }, "-scale"},
		{"reuse without analyses", func(o *Options) { o.ReuseDistance = true; o.Coarse = false; o.Fine = false }, "-reuse"},
		{"unknown pattern", func(o *Options) { o.Patterns = "bogus" }, "-patterns"},
		{"bad fault spec", func(o *Options) { o.Faults = "bogus@x" }, "-faults"},
	}
	for _, tc := range cases {
		o := defaults(t)
		tc.mut(o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: Validate() = %v, want error naming %s", tc.name, err, tc.flag)
		}
	}
}

// TestCanonicalSchema pins the one-option-schema contract: every
// registered flag has an Options field whose JSON tag is the flag name,
// and every Options field is a registered flag. The daemon API and the
// CLIs cannot drift because they share this single struct.
func TestCanonicalSchema(t *testing.T) {
	o := &Options{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Register(fs)

	tags := map[string]bool{}
	rt := reflect.TypeOf(*o)
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Errorf("field %s has no canonical JSON tag", rt.Field(i).Name)
			continue
		}
		tag = strings.Split(tag, ",")[0]
		tags[tag] = true
	}

	flags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })

	for name := range flags {
		if !tags[name] {
			t.Errorf("flag -%s has no Options field tagged %q", name, name)
		}
	}
	for tag := range tags {
		if !flags[tag] {
			t.Errorf("Options field tagged %q has no registered -%s flag", tag, tag)
		}
	}
}

// TestFlagJSONEquivalence drives the same settings through flag parsing
// and through the API's JSON body and requires the identical Options.
func TestFlagJSONEquivalence(t *testing.T) {
	byFlags := &Options{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	byFlags.Register(fs)
	if err := fs.Parse([]string{
		"-coarse=false", "-reuse", "-kernels", "gemm_kernel",
		"-patterns", "single zero", "-sample", "20", "-scale", "2",
		"-faults", "seed=7,prob=0.5",
	}); err != nil {
		t.Fatal(err)
	}

	byJSON := defaults(t)
	body := `{"coarse": false, "reuse": true, "kernels": "gemm_kernel",
		"patterns": "single zero", "sample": 20, "scale": 2,
		"faults": "seed=7,prob=0.5"}`
	if err := json.Unmarshal([]byte(body), byJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byFlags, byJSON) {
		t.Fatalf("flag/JSON drift:\n flags: %+v\n json:  %+v", byFlags, byJSON)
	}
}

// TestOptionErrorTyped asserts validation failures carry the canonical
// option name as a typed OptionError, so the API error envelope can
// point at the offending field without parsing message strings.
func TestOptionErrorTyped(t *testing.T) {
	cases := []struct {
		mut    func(*Options)
		option string
	}{
		{func(o *Options) { o.Sample = 0 }, "sample"},
		{func(o *Options) { o.Scale = 0 }, "scale"},
		{func(o *Options) { o.Patterns = "bogus" }, "patterns"},
		{func(o *Options) { o.Faults = "bogus@x" }, "faults"},
	}
	for _, tc := range cases {
		o := defaults(t)
		tc.mut(o)
		err := o.Validate()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: Validate() = %v, want *OptionError", tc.option, err)
			continue
		}
		if oe.Option != tc.option {
			t.Errorf("Option = %q, want %q (err: %v)", oe.Option, tc.option, err)
		}
		if !strings.HasPrefix(oe.Error(), "-"+tc.option) {
			t.Errorf("message lost its flag spelling: %q", oe.Error())
		}
	}
}

func TestPatternList(t *testing.T) {
	o := defaults(t)
	names, err := o.PatternList()
	if err != nil || names != nil {
		t.Fatalf("empty flag: %v %v", names, err)
	}
	o.Patterns = " single zero , heavy type "
	names, err = o.PatternList()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "single zero" || names[1] != "heavy type" {
		t.Fatalf("parsed names: %v", names)
	}
	o.Patterns = "single zero,bogus pattern"
	_, err = o.PatternList()
	if err == nil || !strings.Contains(err.Error(), `"bogus pattern"`) {
		t.Fatalf("unknown pattern accepted: %v", err)
	}
	// The rejection must teach the user the valid vocabulary.
	if !strings.Contains(err.Error(), "valid:") || !strings.Contains(err.Error(), "heavy type") {
		t.Fatalf("error does not list valid set: %v", err)
	}
}

func TestFaultPlan(t *testing.T) {
	o := defaults(t)
	o.Faults = " "
	plan, err := o.FaultPlan()
	if err != nil || plan != nil {
		t.Fatalf("blank spec: %v %v", plan, err)
	}
	o.Faults = "seed=7,prob=0.5"
	if _, err := o.FaultPlan(); err != nil {
		t.Fatal(err)
	}
	o.Faults = "malloc@0"
	if _, err := o.FaultPlan(); err == nil {
		t.Fatal("invalid occurrence accepted")
	}
}

func TestKernelFilter(t *testing.T) {
	o := defaults(t)
	if o.KernelFilter() != nil {
		t.Fatal("empty -kernels produced a filter")
	}
	o.Kernels = "fill_kernel, gemm_kernel"
	f := o.KernelFilter()
	if !f("fill_kernel") || !f("gemm_kernel") || f("other_kernel") {
		t.Fatal("filter does not match the listed kernels")
	}
}

func TestEngineConfig(t *testing.T) {
	o := defaults(t)
	o.Patterns = "single zero"
	o.Kernels = "gemm_kernel"
	o.Sample = 4
	cfg, err := o.EngineConfig("demo")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Program != "demo" || !cfg.Coarse || !cfg.Fine {
		t.Fatalf("config basics: %+v", cfg)
	}
	if cfg.KernelSamplingPeriod != 4 || cfg.BlockSamplingPeriod != 4 {
		t.Fatalf("config sampling settings: %+v", cfg)
	}
	if len(cfg.Patterns) != 1 || cfg.Patterns[0] != "single zero" {
		t.Fatalf("config patterns: %v", cfg.Patterns)
	}
	if cfg.KernelFilter == nil || !cfg.KernelFilter("gemm_kernel") {
		t.Fatal("config kernel filter missing")
	}
	o.Patterns = "bogus"
	if _, err := o.EngineConfig("demo"); err == nil {
		t.Fatal("invalid patterns accepted by EngineConfig")
	}
}
