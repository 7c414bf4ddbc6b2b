package experiments

import (
	"fmt"

	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
	"valueexpert/internal/vflow"
	"valueexpert/internal/workloads"
)

// Figure2Result is the Darknet value flow graph (paper Figure 2 / §8.1).
type Figure2Result struct {
	Graph *vflow.Graph
	DOT   string

	Nodes, Edges int
	// RedEdges counts fully or mostly redundant value flows — the thick
	// red edges the paper highlights (fill→gemm and the H2D zero copies).
	RedEdges int
}

// Figure2 profiles the Darknet workload coarse-grained and renders its
// value flow graph.
func Figure2(opts Options) (*Figure2Result, error) {
	opts = opts.withDefaults()
	w, err := workloads.Lookup("Darknet", opts.Scale)
	if err != nil {
		return nil, err
	}
	rt := cuda.NewRuntime(opts.Devices[0])
	p := core.Attach(rt, core.Config{Coarse: true, Program: "Darknet"})
	if err := w.Run(rt, workloads.Original); err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	g := p.Graph()
	red := 0
	for _, edge := range g.Edges() {
		if edge.RedundantFraction() >= 1.0/3.0 {
			red++
		}
	}
	return &Figure2Result{
		Graph: g,
		DOT: g.DOT(vflow.DOTOptions{
			Title:        "Darknet value flow graph (ValueExpert)",
			WithContexts: true,
		}),
		Nodes:    len(g.ActiveVertices()),
		Edges:    g.NumEdges(),
		RedEdges: red,
	}, nil
}

// Figure3Result is the worked construction example of paper Figure 3: the
// seven-line program, its full value flow graph, the vertex slice on the
// second zero-kernel, and the important graph.
type Figure3Result struct {
	Full      *vflow.Graph
	Slice     *vflow.Graph
	Important *vflow.Graph
	DOT       string
}

// Figure3 executes the example program of §5.2 on the simulated runtime
// with the profiler attached and derives the three graphs of Figure 3c-3e.
func Figure3(opts Options) (*Figure3Result, error) {
	opts = opts.withDefaults()
	rt := cuda.NewRuntime(opts.Devices[0])
	p := core.Attach(rt, core.Config{Coarse: true, Program: "figure3"})

	const n = 4096
	// Line 1/2: allocations.
	aDev, err := rt.MallocF32(n, "A_dev")
	if err != nil {
		return nil, err
	}
	bDev, err := rt.MallocF32(n, "B_dev")
	if err != nil {
		return nil, err
	}
	// Line 3/4: memsets.
	if err := rt.Memset(aDev, 0, 4*n); err != nil {
		return nil, err
	}
	if err := rt.Memset(bDev, 0, 4*n); err != nil {
		return nil, err
	}
	// Line 5/6: kernels writing zeros (fully redundant).
	zeroK := func(dst cuda.DevPtr) *gpu.GoKernel {
		return &gpu.GoKernel{
			Name: "zero_kernel",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= n {
					return
				}
				t.StoreF32(0, uint64(dst)+uint64(4*i), 0)
			},
		}
	}
	if err := rt.Launch(zeroK(aDev), gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
		return nil, err
	}
	if err := rt.Launch(zeroK(bDev), gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
		return nil, err
	}
	// Line 7: use_kernel reads A_dev, writes B_dev.
	use := &gpu.GoKernel{
		Name: "use_kernel",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			a := t.LoadF32(0, uint64(aDev)+uint64(4*i))
			t.CountFP32(1)
			t.StoreF32(1, uint64(bDev)+uint64(4*i), a+float32(i))
		},
	}
	if err := rt.Launch(use, gpu.Dim1(n/256), gpu.Dim1(256)); err != nil {
		return nil, err
	}

	g := p.Graph()
	// Find the zero_kernel vertex writing B_dev for the slice (Figure 3d
	// slices on vertex 6).
	var v6 vflow.VertexID = -1
	for _, e := range g.Edges() {
		to, _ := g.Vertex(e.To)
		if to.Kind == vflow.KindKernel && to.Name == "zero_kernel" && e.Object == 2 {
			v6 = e.To
		}
	}
	if v6 < 0 {
		return nil, fmt.Errorf("figure 3: zero_kernel vertex for B_dev not found:\n%s", g.Summary())
	}
	return &Figure3Result{
		Full:      g,
		Slice:     g.VertexSlice(v6),
		Important: g.ImportantGraph(float64(4*n/2), 1e18, vflow.Importance{}),
		DOT:       g.DOT(vflow.DOTOptions{Title: "Figure 3 example", WithContexts: true}),
	}, nil
}
