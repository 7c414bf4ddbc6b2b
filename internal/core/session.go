package core

import (
	"fmt"
	"sort"
	"strings"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/profile"
	"valueexpert/internal/vpattern"
)

// Session profiles a program that uses several GPUs at once — the
// "multiple GPUs per node" configuration the paper targets (§1.3). Each
// device gets its own runtime and attached profiler; the session adds the
// cross-device analysis a single profiler cannot see: data objects whose
// values are identical replicas on different GPUs (the duplicate values
// pattern across devices, typical of data-parallel training where every
// GPU holds the same weights).
type Session struct {
	cfg   Config
	rts   []*cuda.Runtime
	profs []*Profiler
}

// NewSession creates one runtime+profiler per device profile. An invalid
// configuration returns its validation error instead of panicking in
// Attach.
func NewSession(cfg Config, devices ...gpu.Profile) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg}
	for _, d := range devices {
		rt := cuda.NewRuntime(d)
		s.rts = append(s.rts, rt)
		s.profs = append(s.profs, Attach(rt, cfg))
	}
	return s, nil
}

// Close detaches every profiler from its runtime. Each detach drains the
// profiler first (the runtime drains a Drainer interceptor on removal),
// so closing is safe — and leak-free — even after a mid-pipeline fault
// left a launch in flight. Reports remain readable after Close.
func (s *Session) Close() {
	for _, p := range s.profs {
		p.Detach()
	}
}

// Devices reports the number of devices in the session.
func (s *Session) Devices() int { return len(s.rts) }

// Runtime returns device i's runtime (the handle the program issues GPU
// work through, like selecting a device with cudaSetDevice).
func (s *Session) Runtime(i int) *cuda.Runtime { return s.rts[i] }

// Profiler returns device i's attached profiler.
func (s *Session) Profiler(i int) *Profiler { return s.profs[i] }

// Reports returns each device's annotated profile.
func (s *Session) Reports() []*profile.Report {
	out := make([]*profile.Report, len(s.profs))
	for i, p := range s.profs {
		out[i] = p.Report()
	}
	return out
}

// ObjectRef names a data object on a specific device.
type ObjectRef struct {
	Device   int
	DeviceID string
	ObjectID int
	Tag      string
}

// String renders the reference.
func (r ObjectRef) String() string {
	tag := r.Tag
	if tag == "" {
		tag = fmt.Sprintf("obj#%d", r.ObjectID)
	}
	return fmt.Sprintf("gpu%d:%s", r.Device, tag)
}

// CrossDeviceDuplicates groups data objects whose current value snapshots
// are byte-identical across different devices of the session. Groups
// whose members all live on one device are omitted (the per-device
// duplicate analysis already reports those). Requires Coarse analysis.
func (s *Session) CrossDeviceDuplicates() [][]ObjectRef {
	classes := vpattern.NewContentClasses[ObjectRef]()
	for di, p := range s.profs {
		if p.coarse == nil {
			continue
		}
		mem := s.rts[di].Device().Mem
		p.coarse.dup.Each(func(id int, h uint64, snap []byte) {
			ref := ObjectRef{Device: di, DeviceID: s.rts[di].Device().Prof.Name, ObjectID: id}
			if a := mem.LookupID(id); a != nil {
				ref.Tag = a.Tag
			}
			classes.Add(ref, h, snap)
		})
	}
	var out [][]ObjectRef
	for _, g := range classes.Groups() {
		devs := map[int]bool{}
		for _, r := range g {
			devs[r.Device] = true
		}
		if len(devs) < 2 {
			continue // same-device duplicates are reported per device
		}
		sort.Slice(g, func(i, j int) bool {
			if g[i].Device != g[j].Device {
				return g[i].Device < g[j].Device
			}
			return g[i].ObjectID < g[j].ObjectID
		})
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0].ObjectID < out[j][0].ObjectID
	})
	return out
}

// Summary renders per-device pattern sets plus cross-device duplicates.
func (s *Session) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multi-GPU session: %d devices\n", len(s.rts))
	for i, rep := range s.Reports() {
		pats := rep.PatternSet()
		names := make([]string, 0, len(pats))
		for k := range pats {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  gpu%d (%s): %d objects, patterns: %s\n",
			i, rep.Device, len(rep.Objects), strings.Join(names, ", "))
	}
	for _, g := range s.CrossDeviceDuplicates() {
		var refs []string
		for _, r := range g {
			refs = append(refs, r.String())
		}
		fmt.Fprintf(&b, "  cross-device duplicates: %s\n", strings.Join(refs, " = "))
	}
	return b.String()
}
