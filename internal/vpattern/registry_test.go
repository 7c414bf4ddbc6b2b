package vpattern

import (
	"slices"
	"strings"
	"testing"

	"valueexpert/gpu"
)

func TestBuiltinRegistrationOrder(t *testing.T) {
	// Registration order is the report emission order — the byte-identity
	// contract of the refactor depends on it.
	want := []string{
		"redundant values", "duplicate values", "single zero",
		"single value", "frequent values", "heavy type",
		"structured values", "approximate values",
	}
	names := Names()
	if len(names) < len(want) {
		t.Fatalf("registry names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %q, want %q (full: %v)", i, names[i], n, names)
		}
	}
	// All eight builtins are on by default.
	defaults := map[string]bool{}
	for _, n := range DefaultNames() {
		defaults[n] = true
	}
	for _, n := range want {
		if !defaults[n] {
			t.Fatalf("builtin %q not enabled by default", n)
		}
	}
}

func TestBuiltinLookup(t *testing.T) {
	for _, c := range []struct {
		kind  Kind
		name  string
		grain Grain
	}{
		{RedundantValues, "redundant values", GrainCoarse},
		{DuplicateValues, "duplicate values", GrainCoarse},
		{SingleZero, "single zero", GrainFine},
		{ApproximateValues, "approximate values", GrainFine},
	} {
		reg, ok := Lookup(c.kind)
		if !ok || reg.Name != c.name || reg.Grain != c.grain {
			t.Fatalf("Lookup(%v) = %+v, %v", c.kind, reg, ok)
		}
		byName, ok := LookupName(c.name)
		if !ok || byName.Kind != c.kind {
			t.Fatalf("LookupName(%q) = %+v, %v", c.name, byName, ok)
		}
		if c.grain == GrainFine && (reg.New == nil || reg.Advise == nil) {
			t.Fatalf("fine builtin %q missing factory or advice", c.name)
		}
	}
}

func TestParseSetErrors(t *testing.T) {
	set, err := ParseSet(nil)
	if err != nil || set != nil {
		t.Fatalf("nil names: %v %v", set, err)
	}
	set, err = ParseSet([]string{"single zero", "heavy type"})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Enabled(SingleZero) || !set.Enabled(HeavyType) || set.Enabled(SingleValue) {
		t.Fatalf("subset membership wrong: %v", set)
	}
	// An explicit empty (non-nil) selection disables everything.
	set, err = ParseSet([]string{})
	if err != nil || set == nil {
		t.Fatalf("empty names: %v %v", set, err)
	}
	for _, reg := range All() {
		if set.Enabled(reg.Kind) {
			t.Fatalf("empty set still enables %q", reg.Name)
		}
	}
	_, err = ParseSet([]string{"no such pattern"})
	if err == nil || !strings.Contains(err.Error(), `"no such pattern"`) ||
		!strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown name error: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(what string, r Registration) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Register accepted %s", what)
			}
		}()
		Register(r)
	}
	mustPanic("empty name", Registration{Kind: KindAuto, Grain: GrainFine,
		New: func(FineConfig) Detector { return noopDetector{} }})
	mustPanic("duplicate name", Registration{Kind: KindAuto, Name: "single zero",
		Grain: GrainFine, New: func(FineConfig) Detector { return noopDetector{} }})
	mustPanic("duplicate kind", Registration{Kind: SingleZero, Name: "test dup kind",
		Grain: GrainFine, New: func(FineConfig) Detector { return noopDetector{} }})
	mustPanic("fine kind without factory", Registration{Kind: KindAuto,
		Name: "test no factory", Grain: GrainFine})
}

// countingDetector records Observe calls so tests can prove that a
// disabled detector costs nothing on the per-access path.
type countingDetector struct {
	observes *int
}

func (d countingDetector) Observe(objID int, a gpu.Access) { *d.observes++ }
func (d countingDetector) Finalize(objID int, sh *ObjectShared) (Match, bool) {
	return Match{}, false
}

// registerForTest registers r for the rest of the test only: cleanup
// removes it from the process-wide registry again, so the test can run
// more than once in one process (go test -count=N).
func registerForTest(t *testing.T, r Registration) Kind {
	k := Register(r)
	t.Cleanup(func() {
		registry.Lock()
		defer registry.Unlock()
		delete(registry.byName, registry.byKind[k].Name)
		delete(registry.byKind, k)
		registry.order = slices.DeleteFunc(registry.order, func(o Kind) bool { return o == k })
	})
	return k
}

func TestRegisterAutoKindAndDisabledByDefault(t *testing.T) {
	calls := 0
	kind := registerForTest(t, Registration{
		Kind:    KindAuto,
		Name:    "test counting",
		Grain:   GrainFine,
		Default: false,
		New:     func(FineConfig) Detector { return countingDetector{observes: &calls} },
	})
	if kind < NumKinds {
		t.Fatalf("auto-allocated kind %d collides with builtins", kind)
	}
	if kind.String() != "test counting" {
		t.Fatalf("Kind.String() for registered kind = %q", kind.String())
	}
	for _, n := range DefaultNames() {
		if n == "test counting" {
			t.Fatal("Default:false kind appears in DefaultNames")
		}
	}

	// The default accumulator must never construct — let alone call — a
	// detector that is not enabled.
	acc := NewFineAccumulator(FineConfig{})
	access := gpu.Access{Store: true, Raw: gpu.RawFromFloat32(1), Size: 4, Kind: gpu.KindFloat}
	acc.Add(1, access)
	acc.Add(1, access)
	if calls != 0 {
		t.Fatalf("disabled detector observed %d accesses", calls)
	}

	// Explicitly enabling it routes every access through Observe.
	set, err := ParseSet(append(DefaultNames(), "test counting"))
	if err != nil {
		t.Fatal(err)
	}
	acc = NewFineAccumulatorWith(FineConfig{}, FineDetectors(set))
	acc.Add(1, access)
	acc.Add(1, access)
	if calls != 2 {
		t.Fatalf("enabled detector observed %d accesses, want 2", calls)
	}
}

type noopDetector struct{}

func (noopDetector) Observe(objID int, a gpu.Access)                    {}
func (noopDetector) Finalize(objID int, sh *ObjectShared) (Match, bool) { return Match{}, false }

func TestFineDetectorsSelection(t *testing.T) {
	// nil set = registry defaults: the six fine builtins, in order.
	regs := FineDetectors(nil)
	wantOrder := []Kind{SingleZero, SingleValue, FrequentValues, HeavyType, StructuredValues, ApproximateValues}
	if len(regs) < len(wantOrder) {
		t.Fatalf("default fine detectors: %d", len(regs))
	}
	for i, k := range wantOrder {
		if regs[i].Kind != k {
			t.Fatalf("fine detector %d = %v, want %v", i, regs[i].Kind, k)
		}
	}
	// Coarse kinds never appear even when explicitly enabled.
	set := Set{RedundantValues: true, SingleZero: true}
	regs = FineDetectors(set)
	if len(regs) != 1 || regs[0].Kind != SingleZero {
		t.Fatalf("subset fine detectors = %v", regs)
	}
}
