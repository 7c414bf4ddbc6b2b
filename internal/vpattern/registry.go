package vpattern

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"valueexpert/gpu"
)

// Grain classifies a pattern by its observation mechanism (paper §3):
// coarse-grained patterns are recognized from per-API value snapshots,
// fine-grained patterns from instrumented per-access values.
type Grain uint8

const (
	// GrainCoarse patterns are detected by diffing/hashing data-object
	// value snapshots at GPU API boundaries.
	GrainCoarse Grain = iota
	// GrainFine patterns are detected from the instrumented access stream
	// by a Detector.
	GrainFine
)

// String names the grain.
func (g Grain) String() string {
	if g == GrainCoarse {
		return "coarse"
	}
	return "fine"
}

// Detector recognizes one fine-grained value pattern for one kernel
// launch. The access counters and exact-value histogram every pattern
// needs live in the shared observation context the accumulator maintains
// (ObjectShared); a detector that reads nothing else implements only
// Finalize and costs nothing per access.
type Detector interface {
	// Finalize reports objID's match, if the pattern holds. sh is the
	// object's shared observation context, with the ranked top values
	// already computed.
	Finalize(objID int, sh *ObjectShared) (Match, bool)
}

// Observer is the optional Detector extension for patterns that keep
// per-access state of their own. Only observers are called on the
// per-access path, and each sees one launch's accesses once, in order. A
// compacted range record (Count > 1) is decoded once and ingested whole:
// the builtin observers take all its element values after one state
// lookup, and an observer without that internal range method gets one
// Observe call per element, in element order, each a scalar access
// (Count 1) at the element's address with its value.
type Observer interface {
	Detector

	// Observe ingests one access of data object objID. The accumulator
	// has already folded the access into the object's shared observation.
	Observe(objID int, a gpu.Access)
}

// FineAdvice maps one fine-grained match on a data object to the
// optimization suggestion it implies: the advisor calls the registered
// kind's advice with the match and the object's accessed bytes and emits
// a ranked suggestion titled title with estimated benefit. ok=false
// emits nothing.
type FineAdvice func(m Match, objectBytes uint64) (title string, benefit uint64, ok bool)

// KindAuto asks Register to allocate the next free Kind — the way
// out-of-tree patterns obtain a kind without coordinating constants.
const KindAuto Kind = 0xFF

// Registration describes one value-pattern kind: identity, grain, and
// the hooks each layer consults — the detector factory for the fine
// analysis stage and the advice function for the advisor. Registering a
// kind is all it takes for the engine, report, advisor, GUI tables, and
// vxprof -patterns to carry it.
type Registration struct {
	// Kind identifies the pattern; KindAuto allocates the next free kind.
	Kind Kind
	// Name is the pattern's report/flag name (e.g. "heavy type").
	Name string
	// Grain tells which engine stage owns detection.
	Grain Grain
	// Default enables the pattern when Config.Patterns is unset.
	Default bool
	// New builds the launch detector (fine kinds). nil for coarse kinds,
	// whose snapshot machinery lives in the engine's coarse stage.
	New func(cfg FineConfig) Detector
	// Advise derives the advisor suggestion for one match (fine kinds);
	// nil emits no per-match suggestions.
	Advise FineAdvice
}

var registry = struct {
	sync.RWMutex
	order  []Kind
	byKind map[Kind]Registration
	byName map[string]Kind
	next   Kind
}{
	byKind: make(map[Kind]Registration),
	byName: make(map[string]Kind),
	next:   NumKinds,
}

// Register adds a pattern kind to the global registry and returns its
// Kind (allocated when r.Kind is KindAuto). Registration order is
// significant: fine-grained matches are emitted in registration order,
// which for the builtins reproduces the report layout byte for byte.
// Register panics on a duplicate kind or name — registrations are
// program wiring, not runtime input.
func Register(r Registration) Kind {
	registry.Lock()
	defer registry.Unlock()
	if r.Name == "" {
		panic("vpattern: registration without a name")
	}
	if r.Kind == KindAuto {
		r.Kind = registry.next
		registry.next++
	} else if r.Kind >= registry.next {
		registry.next = r.Kind + 1
	}
	if _, dup := registry.byKind[r.Kind]; dup {
		panic(fmt.Sprintf("vpattern: kind %d registered twice", r.Kind))
	}
	if _, dup := registry.byName[r.Name]; dup {
		panic(fmt.Sprintf("vpattern: pattern name %q registered twice", r.Name))
	}
	if r.Grain == GrainFine && r.New == nil {
		panic(fmt.Sprintf("vpattern: fine-grained pattern %q has no detector factory", r.Name))
	}
	registry.order = append(registry.order, r.Kind)
	registry.byKind[r.Kind] = r
	registry.byName[r.Name] = r.Kind
	return r.Kind
}

// Lookup returns kind k's registration.
func Lookup(k Kind) (Registration, bool) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.byKind[k]
	return r, ok
}

// LookupName returns the registration with the given report name.
func LookupName(name string) (Registration, bool) {
	registry.RLock()
	defer registry.RUnlock()
	k, ok := registry.byName[name]
	if !ok {
		return Registration{}, false
	}
	return registry.byKind[k], true
}

// All returns every registration in registration order.
func All() []Registration {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Registration, 0, len(registry.order))
	for _, k := range registry.order {
		out = append(out, registry.byKind[k])
	}
	return out
}

// Names returns every registered pattern name in registration order.
func Names() []string {
	var out []string
	for _, r := range All() {
		out = append(out, r.Name)
	}
	return out
}

// DefaultNames returns the names of the patterns enabled by default, in
// registration order.
func DefaultNames() []string {
	var out []string
	for _, r := range All() {
		if r.Default {
			out = append(out, r.Name)
		}
	}
	return out
}

// Set is an enabled-pattern set. A nil Set means "registry defaults".
type Set map[Kind]bool

// Enabled reports whether kind k is on. On a nil Set, the registration's
// Default decides.
func (s Set) Enabled(k Kind) bool {
	if s == nil {
		r, ok := Lookup(k)
		return ok && r.Default
	}
	return s[k]
}

// Names returns the set's enabled pattern names in registration order.
func (s Set) Names() []string {
	var out []string
	for _, r := range All() {
		if s.Enabled(r.Kind) {
			out = append(out, r.Name)
		}
	}
	return out
}

// ParseSet resolves pattern names to an enabled set. nil selects the
// registry defaults (and returns a nil Set); an empty non-nil slice
// disables every pattern. Unknown names are rejected with an error that
// lists the valid set.
func ParseSet(names []string) (Set, error) {
	if names == nil {
		return nil, nil
	}
	set := make(Set, len(names))
	for _, n := range names {
		r, ok := LookupName(n)
		if !ok {
			valid := Names()
			sort.Strings(valid)
			return nil, fmt.Errorf("unknown pattern %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		set[r.Kind] = true
	}
	return set, nil
}

// FineDetectors returns the fine-grained registrations enabled in set,
// in registration order — the detector lineup a FineAccumulator runs.
func FineDetectors(set Set) []Registration {
	var out []Registration
	for _, r := range All() {
		if r.Grain == GrainFine && set.Enabled(r.Kind) {
			out = append(out, r)
		}
	}
	return out
}
