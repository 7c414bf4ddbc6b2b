package workloads

import (
	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/vpattern"
)

func init() {
	register(func(z size) Workload { return &deepwave{z} })
	register(func(z size) Workload { return &bert{z} })
	register(func(z size) Workload { return &resnet50{z} })
	register(func(z size) Workload { return &namd{z} })
	register(func(z size) Workload { return &lammps{z} })
}

// ---------------------------------------------------------------------------
// PyTorch-Deepwave — replication_pad3d_backward_cuda (§8.2, Listing 3):
// gradInput is created with at::zeros_like (a memset) and then zeroed
// again by gradInput.zero_() before the accumulation kernel runs — 100%
// redundant writes and the single zero pattern. Fix: empty_like + drop
// the extra zero_() (upstreamed to PyTorch). Paper: 1.07× / 1.04×.
// ---------------------------------------------------------------------------
type deepwave struct{ size }

func (*deepwave) Name() string         { return "PyTorch-Deepwave" }
func (*deepwave) HotKernels() []string { return []string{"replication_pad3d_backward"} }
func (*deepwave) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.SingleValue, vpattern.SingleZero}
}
func (*deepwave) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}

func (w *deepwave) Run(rt *cuda.Runtime, v Variant) error {
	n := w.scaled(512 << 10)
	pad := 8

	rt.PushFrame(callpath.Frame{Func: "replication_pad3d_backward_cuda", File: "ReplicationPadding.cu", Line: 317})
	defer rt.PopFrame()

	dGradOut, err := rt.MallocF32(n+2*pad, "gradOutput")
	if err != nil {
		return err
	}
	dGradIn, err := rt.MallocF32(n, "gradInput")
	if err != nil {
		return err
	}
	gradOut := make([]float32, n+2*pad)
	r := rng(15)
	for i := range gradOut {
		gradOut[i] = float32(r.NormFloat64())
	}
	if err := rt.CopyF32ToDevice(dGradOut, gradOut); err != nil {
		return err
	}

	// at::zeros_like — both variants start with a zeroed tensor; the
	// optimized code uses empty_like + writes in the kernel, so no memset.
	if v == Original {
		if err := rt.Memset(dGradIn, 0, uint64(4*n)); err != nil {
			return err
		}
		// gradInput.zero_(): the redundant second zeroing (Listing 3,
		// line 3), a full kernel writing zeros over zeros.
		zero := &gpu.GoKernel{
			Name: "zero_",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= n {
					return
				}
				t.StoreF32(0, uint64(dGradIn)+uint64(4*i), 0)
			},
		}
		if err := rt.Launch(zero, gpu.Dim1((n+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}

	backward := &gpu.GoKernel{
		Name: "replication_pad3d_backward",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			// The pad-backward reduction streams the replication window of
			// the output gradient in both variants.
			t.BulkLoad(3, uint64(dGradOut)+uint64(4*i), 8, 4, gpu.KindFloat)
			g := t.LoadF32(0, uint64(dGradOut)+uint64(4*(i+pad)))
			if v == Original {
				// Accumulates into the (zeroed) gradInput.
				cur := t.LoadF32(1, uint64(dGradIn)+uint64(4*i))
				t.CountFP32(1)
				t.StoreF32(2, uint64(dGradIn)+uint64(4*i), cur+g)
			} else {
				// With empty_like the kernel overwrites instead.
				t.StoreF32(2, uint64(dGradIn)+uint64(4*i), g)
			}
		},
	}
	for it := 0; it < 2; it++ {
		if v == Original && it > 0 {
			if err := rt.Memset(dGradIn, 0, uint64(4*n)); err != nil {
				return err
			}
		}
		if err := rt.Launch(backward, gpu.Dim1((n+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}
	out := make([]float32, 1024)
	return rt.CopyF32FromDevice(out, dGradIn)
}

// ---------------------------------------------------------------------------
// PyTorch-Bert — the embedding operator (§8.2): the padding region of the
// out tensor is zeroed in reset_parameters and re-zeroed by
// embedding.masked_fill_ on every iteration although nothing dirtied it
// (redundant values). Fix: drop the per-iteration re-initialization.
// Paper: 1.57× / 1.59× for the embedding operator.
// ---------------------------------------------------------------------------
type bert struct{ size }

func (*bert) Name() string         { return "PyTorch-Bert" }
func (*bert) HotKernels() []string { return []string{"embedding", "masked_fill_"} }
func (*bert) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}
func (*bert) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}

func (w *bert) Run(rt *cuda.Runtime, v Variant) error {
	vocab := w.scaled(32 << 10)
	const dim = 64
	seq := 512
	padRows := seq / 4 // attention-mask padding

	rt.PushFrame(callpath.Frame{Func: "BertEmbeddings::forward", File: "modeling_bert.py", Line: 220})
	defer rt.PopFrame()

	dWeight, err := rt.MallocF32(vocab*dim, "embedding.weight")
	if err != nil {
		return err
	}
	dOut, err := rt.MallocF32(seq*dim, "out")
	if err != nil {
		return err
	}
	dIds, err := rt.MallocI32(seq, "input_ids")
	if err != nil {
		return err
	}
	r := rng(16)
	wts := make([]float32, vocab*dim)
	for i := range wts {
		wts[i] = float32(r.NormFloat64()) * 0.02
	}
	if err := rt.CopyF32ToDevice(dWeight, wts); err != nil {
		return err
	}
	ids := make([]int32, seq)
	for i := range ids {
		if i < seq-padRows {
			ids[i] = int32(r.Intn(vocab))
		} // padding ids stay 0
	}
	if err := rt.CopyI32ToDevice(dIds, ids); err != nil {
		return err
	}
	// reset_parameters: zero the padding region once.
	if err := rt.Memset(dOut.Offset(uint64(4*(seq-padRows)*dim)), 0, uint64(4*padRows*dim)); err != nil {
		return err
	}

	gather := &gpu.GoKernel{
		Name: "embedding",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= (seq-padRows)*dim {
				return
			}
			row := i / dim
			col := i % dim
			id := t.LoadI32(0, uint64(dIds)+uint64(4*row))
			val := t.LoadF32(1, uint64(dWeight)+uint64(4*(int(id)*dim+col)))
			t.CountFP32(1)
			t.StoreF32(2, uint64(dOut)+uint64(4*i), val)
		},
	}
	maskFill := &gpu.GoKernel{
		Name: "masked_fill_",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= padRows*dim {
				return
			}
			t.StoreF32(0, uint64(dOut)+uint64(4*((seq-padRows)*dim+i)), 0)
		},
	}
	// LayerNorm over each row, following the embedding lookup (both
	// variants; not part of the optimized operator's hot set).
	dGamma, err := rt.MallocF32(dim, "LayerNorm.weight")
	if err != nil {
		return err
	}
	gamma := make([]float32, dim)
	for i := range gamma {
		gamma[i] = 1
	}
	if err := rt.CopyF32ToDevice(dGamma, gamma); err != nil {
		return err
	}
	layerNorm := &gpu.GoKernel{
		Name: "layer_norm",
		Func: func(t *gpu.Thread) {
			row := t.GlobalID()
			if row >= seq-padRows {
				return
			}
			base := uint64(dOut) + uint64(4*row*dim)
			var mean float32
			for c := 0; c < dim; c++ {
				mean += t.LoadF32(0, base+uint64(4*c))
			}
			mean /= float32(dim)
			t.CountFP32(2 * dim)
			for c := 0; c < dim; c++ {
				g := t.LoadF32(1, uint64(dGamma)+uint64(4*c))
				x := t.LoadF32(2, base+uint64(4*c))
				t.CountFP32(3)
				t.StoreF32(3, base+uint64(4*c), g*(x-mean))
			}
		},
	}

	for iter := 0; iter < 8; iter++ {
		if err := rt.Launch(gather, gpu.Dim1(((seq-padRows)*dim+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
		if v == Original {
			// Re-zeroes the untouched padding every iteration.
			if err := rt.Launch(maskFill, gpu.Dim1((padRows*dim+255)/256), gpu.Dim1(256)); err != nil {
				return err
			}
		}
		if err := rt.Launch(layerNorm, gpu.Dim1(seq-padRows), gpu.Dim1(1)); err != nil {
			return err
		}
	}
	out := make([]float32, 1024)
	return rt.CopyF32FromDevice(out, dOut)
}

// ---------------------------------------------------------------------------
// PyTorch-Resnet50 — cuDNN-style convolution keeps a `ones` tensor for
// the +bias GEMV even though the network's batchnorm absorbs bias, so the
// tensor is resized, zero-initialized, filled with ones, and then used
// only to multiply by zero-weighted bias (redundant values; single value
// pattern). Fix: skip the ones tensor when bias is absent.
// Paper: 1.02× / 1.03×.
// ---------------------------------------------------------------------------
type resnet50 struct{ size }

func (*resnet50) Name() string         { return "PyTorch-Resnet50" }
func (*resnet50) HotKernels() []string { return []string{"conv_forward", "fill_ones"} }
func (*resnet50) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.SingleValue, vpattern.SingleZero}
}
func (*resnet50) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.SingleValue}
}

func (w *resnet50) Run(rt *cuda.Runtime, v Variant) error {
	spatial := w.scaled(128 << 10) // output spatial elements per layer
	const layersN = 3

	for l := 0; l < layersN; l++ {
		rt.PushFrame(callpath.Frame{Func: "cudnn_convolution_forward", File: "Conv_v7.cpp", Line: 183})

		dIn, err := rt.MallocF32(spatial, "input")
		if err != nil {
			rt.PopFrame()
			return err
		}
		dOut, err := rt.MallocF32(spatial, "output")
		if err != nil {
			rt.PopFrame()
			return err
		}
		in := make([]float32, spatial)
		r := rng(int64(17 + l))
		for i := range in {
			in[i] = float32(r.NormFloat64())
		}
		if err := rt.CopyF32ToDevice(dIn, in); err != nil {
			rt.PopFrame()
			return err
		}

		// The (absent) bias tensor: all zeros, read by every output element.
		dBias, err := rt.MallocF32(spatial, "bias")
		if err != nil {
			rt.PopFrame()
			return err
		}
		if err := rt.Memset(dBias, 0, uint64(4*spatial)); err != nil {
			rt.PopFrame()
			return err
		}

		var dOnes cuda.DevPtr
		if v == Original {
			// Listing 4: ones.resize_(...).zero_() then fill with 1.
			if dOnes, err = rt.MallocF32(spatial, "ones"); err != nil {
				rt.PopFrame()
				return err
			}
			if err := rt.Memset(dOnes, 0, uint64(4*spatial)); err != nil {
				rt.PopFrame()
				return err
			}
		}
		fill := &gpu.GoKernel{
			Name: "fill_ones",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= spatial {
					return
				}
				t.StoreF32(0, uint64(dOnes)+uint64(4*i), 1)
			},
		}
		conv := &gpu.GoKernel{
			Name: "conv_forward",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= spatial {
					return
				}
				// The implicit-GEMM filter taps dominate both variants.
				win := i
				if win+64 > spatial {
					win = spatial - 64
				}
				t.BulkLoad(4, uint64(dIn)+uint64(4*win), 64, 4, gpu.KindFloat)
				x := t.LoadF32(0, uint64(dIn)+uint64(4*i))
				acc := x * 0.5
				t.CountFP32(134)
				if v == Original {
					// +bias path reads the ones tensor and the zero bias
					// even though batchnorm absorbs bias entirely.
					one := t.LoadF32(1, uint64(dOnes)+uint64(4*i))
					b := t.LoadF32(3, uint64(dBias)+uint64(4*i))
					acc += one * b
					t.CountFP32(2)
				}
				t.StoreF32(2, uint64(dOut)+uint64(4*i), acc)
			},
		}
		// Two forward passes: the second fill_ones rewrites ones over ones
		// (fully redundant) — the 14.25MB the paper reports at Listing 4.
		for pass := 0; pass < 2; pass++ {
			if v == Original {
				if err := rt.Launch(fill, gpu.Dim1((spatial+255)/256), gpu.Dim1(256)); err != nil {
					rt.PopFrame()
					return err
				}
			}
			if err := rt.Launch(conv, gpu.Dim1((spatial+255)/256), gpu.Dim1(256)); err != nil {
				rt.PopFrame()
				return err
			}
		}
		out := make([]float32, 512)
		if err := rt.CopyF32FromDevice(out, dOut); err != nil {
			rt.PopFrame()
			return err
		}
		rt.PopFrame()
	}
	return nil
}

// ---------------------------------------------------------------------------
// NAMD — nonbondedForceKernel: ValueExpert finds redundant values, single
// zero, and heavy type patterns, but for the given input the inefficient
// loop nest is not the bottleneck, so speedups are 1.00× (§8.6). The
// reproduction puts the patterns in a tiny exclusion-correction kernel
// next to the dominant force kernel.
// ---------------------------------------------------------------------------
type namd struct{ size }

func (*namd) Name() string         { return "NAMD" }
func (*namd) HotKernels() []string { return []string{"nonbondedForceKernel"} }
func (*namd) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.SingleZero, vpattern.HeavyType}
}
func (*namd) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.SingleZero}
}

func (w *namd) Run(rt *cuda.Runtime, v Variant) error {
	atoms := w.scaled(256 << 10)
	small := 2048

	rt.PushFrame(callpath.Frame{Func: "CudaComputeNonbondedKernel::nonbondedForce", File: "CudaComputeNonbondedKernel.cu", Line: 910})
	defer rt.PopFrame()

	dForces, err := rt.MallocF32(atoms*3, "d_forces")
	if err != nil {
		return err
	}
	dExcl, err := rt.MallocI32(small, "overflowExclusions")
	if err != nil {
		return err
	}
	dCoords, err := rt.MallocF32(atoms*3, "d_coords")
	if err != nil {
		return err
	}
	coords := make([]float32, atoms*3)
	r := rng(19)
	for i := range coords {
		coords[i] = float32(r.Float64()) * 100
	}
	if err := rt.CopyF32ToDevice(dCoords, coords); err != nil {
		return err
	}
	if err := rt.Memset(dForces, 0, uint64(4*atoms*3)); err != nil {
		return err
	}
	// The exclusion overflow list: int32 values all zero or tiny (heavy
	// type + single zero), re-zeroed each step (redundant).
	if err := rt.Memset(dExcl, 0, uint64(4*small)); err != nil {
		return err
	}

	zeroExcl := &gpu.GoKernel{
		Name: "zeroExclusions",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= small {
				return
			}
			cur := t.LoadI32(0, uint64(dExcl)+uint64(4*i))
			if v == Optimized && cur == 0 {
				return // bypass re-zeroing zeros
			}
			t.StoreI32(1, uint64(dExcl)+uint64(4*i), 0)
		},
	}
	force := &gpu.GoKernel{
		Name: "nonbondedForceKernel",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= atoms {
				return
			}
			x := t.LoadF32(0, uint64(dCoords)+uint64(4*(3*i)))
			y := t.LoadF32(1, uint64(dCoords)+uint64(4*(3*i+1)))
			z := t.LoadF32(2, uint64(dCoords)+uint64(4*(3*i+2)))
			fx, fy, fz := x, y, z
			for k := 0; k < 8; k++ {
				fx = fx*0.99 + y*0.01
				fy = fy*0.99 + z*0.01
				fz = fz*0.99 + x*0.01
			}
			t.CountFP32(8 * 6)
			t.StoreF32(3, uint64(dForces)+uint64(4*(3*i)), fx)
			t.StoreF32(4, uint64(dForces)+uint64(4*(3*i+1)), fy)
			t.StoreF32(5, uint64(dForces)+uint64(4*(3*i+2)), fz)
		},
	}
	for step := 0; step < 2; step++ {
		if err := rt.Launch(zeroExcl, gpu.Dim1((small+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
		if err := rt.Launch(force, gpu.Dim1((atoms+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}
	out := make([]float32, 1024)
	return rt.CopyF32FromDevice(out, dForces)
}

// ---------------------------------------------------------------------------
// LAMMPS — a memory-time-only optimization (Table 3: 6.03× / 5.19×
// memory): the neighbor-list and type arrays are re-uploaded every
// timestep although they change only on re-neighboring steps, and most of
// the upload is the frequent (unchanged) portion. The fix uploads them
// only when rebuilt.
// ---------------------------------------------------------------------------
type lammps struct{ size }

func (*lammps) Name() string         { return "LAMMPS" }
func (*lammps) HotKernels() []string { return nil }
func (*lammps) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.FrequentValues}
}
func (*lammps) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.FrequentValues}
}

func (w *lammps) Run(rt *cuda.Runtime, v Variant) error {
	atoms := w.scaled(128 << 10)
	const neigh = 64
	const steps = 6

	rt.PushFrame(callpath.Frame{Func: "PairLJCutKokkos::compute", File: "pair_lj_cut_kokkos.cpp", Line: 120})
	defer rt.PopFrame()

	dNeigh, err := rt.MallocI32(atoms*neigh, "d_neighbors")
	if err != nil {
		return err
	}
	dType, err := rt.MallocI32(atoms, "d_type")
	if err != nil {
		return err
	}
	dX, err := rt.MallocF64(atoms*3, "d_x")
	if err != nil {
		return err
	}
	dF, err := rt.MallocF64(atoms*3, "d_f")
	if err != nil {
		return err
	}

	r := rng(20)
	// Pre-encode the neighbor list once; each step ships the same raw
	// bytes, like the real code re-sending an unchanged device view.
	neighBytes := make([]byte, 4*atoms*neigh)
	for i := 0; i < atoms*neigh; i++ {
		nv := uint32(r.Intn(atoms))
		neighBytes[4*i] = byte(nv)
		neighBytes[4*i+1] = byte(nv >> 8)
		neighBytes[4*i+2] = byte(nv >> 16)
		neighBytes[4*i+3] = byte(nv >> 24)
	}
	// Mostly one atom type with a sprinkling of solutes: type lookups are
	// dominated by a single hot value (frequent values).
	types := make([]int32, atoms)
	for i := range types {
		if r.Intn(10) == 0 {
			types[i] = 2
		} else {
			types[i] = 1
		}
	}
	pos := make([]float64, atoms*3)
	for i := range pos {
		pos[i] = r.Float64() * 50
	}

	pair := &gpu.GoKernel{
		Name: "pair_lj_compute",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= atoms/8 { // copy-bound app: light compute
				return
			}
			ty := t.LoadI32(2, uint64(dType)+uint64(4*i))
			x := t.LoadF64(0, uint64(dX)+uint64(8*(3*i)))
			t.CountFP64(4)
			t.StoreF64(1, uint64(dF)+uint64(8*(3*i)), x*0.5*float64(ty))
		},
	}

	for step := 0; step < steps; step++ {
		reneighbored := step == 0 // one rebuild in the window
		if v == Original || reneighbored {
			if err := rt.MemcpyH2D(dNeigh, neighBytes); err != nil {
				return err
			}
			if err := rt.CopyI32ToDevice(dType, types); err != nil {
				return err
			}
		}
		// Positions change every step and must always be uploaded.
		if err := rt.CopyF64ToDevice(dX, pos); err != nil {
			return err
		}
		if err := rt.Launch(pair, gpu.Dim1((atoms/8+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}
	out := make([]float64, 1024)
	return rt.CopyF64FromDevice(out, dF)
}
