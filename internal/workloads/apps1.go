package workloads

import (
	"valueexpert/callpath"
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/vpattern"
)

func init() {
	register(func(z size) Workload { return &darknet{z} })
	register(func(z size) Workload { return &qmcpack{z} })
	register(func(z size) Workload { return &castro{z} })
	register(func(z size) Workload { return &barracuda{z} })
}

// ---------------------------------------------------------------------------
// Darknet — the paper's motivating example (§1.1, §8.1): a YOLO-style
// stack of convolution layers using the lowering (im2col + GEMM) method.
//
// Inefficiency I: forward_convolutional_layer_gpu calls fill_ongpu to
// zero l.output_gpu, then gemm_ongpu(beta=1) reads those zeros back and
// accumulates — with a single group the fill and the reads are pure
// overhead (redundant values). Fix: drop fill, call GEMM with beta=0.
//
// Inefficiency II: make_convolutional_layer copies the zero-initialized
// host array l.output into l.output_gpu and l.x_gpu (duplicate values;
// uniform H2D copies). Fix: cudaMemset on the device.
// ---------------------------------------------------------------------------
type darknet struct{ size }

func (*darknet) Name() string         { return "Darknet" }
func (*darknet) HotKernels() []string { return []string{"gemm_kernel", "fill_kernel"} }
func (*darknet) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.DuplicateValues,
		vpattern.FrequentValues, vpattern.SingleValue}
}
func (*darknet) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.DuplicateValues}
}

// darknetLayer mirrors the fields of Darknet's convolutional_layer that
// matter to the reproduction.
type darknetLayer struct {
	outputs   int
	outputGPU cuda.DevPtr
	xGPU      cuda.DevPtr
	weights   cuda.DevPtr
	nWeights  int

	// Batch-norm state, per layer (rolling statistics + affine params).
	rollingMean cuda.DevPtr
	rollingVar  cuda.DevPtr
	scales      cuda.DevPtr
	nFilters    int
}

func (w *darknet) Run(rt *cuda.Runtime, v Variant) error {
	const layersN = 4
	outputs := w.scaled(256 << 10)
	nWeights := 4096

	var layers []darknetLayer
	r := rng(11)

	// make_convolutional_layer: allocate + initialize per-layer buffers.
	for l := 0; l < layersN; l++ {
		rt.PushFrame(callpath.Frame{Func: "make_convolutional_layer", File: "convolutional_layer.c", Line: 553})
		lay := darknetLayer{outputs: outputs, nWeights: nWeights}
		var err error
		if lay.outputGPU, err = rt.MallocF32(outputs, "l.output_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		if lay.xGPU, err = rt.MallocF32(outputs, "l.x_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		if lay.weights, err = rt.MallocF32(nWeights, "l.weights_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		if v == Original {
			// l.output = xcalloc(...): zeros copied to the GPU, twice.
			zeros := make([]float32, outputs)
			if err := rt.CopyF32ToDevice(lay.outputGPU, zeros); err != nil {
				rt.PopFrame()
				return err
			}
			if err := rt.CopyF32ToDevice(lay.xGPU, zeros); err != nil {
				rt.PopFrame()
				return err
			}
		} else {
			// The fix: initialize on device.
			if err := rt.Memset(lay.outputGPU, 0, uint64(4*outputs)); err != nil {
				rt.PopFrame()
				return err
			}
			if err := rt.Memset(lay.xGPU, 0, uint64(4*outputs)); err != nil {
				rt.PopFrame()
				return err
			}
		}
		ws := make([]float32, nWeights)
		for i := range ws {
			ws[i] = float32(r.NormFloat64()) * 0.1
		}
		if err := rt.CopyF32ToDevice(lay.weights, ws); err != nil {
			rt.PopFrame()
			return err
		}
		// Batch-norm parameters: rolling_mean starts at zero, rolling
		// variance and scales at one — the usual Darknet initialization.
		lay.nFilters = 64
		if lay.rollingMean, err = rt.MallocF32(lay.nFilters, "l.rolling_mean_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		if lay.rollingVar, err = rt.MallocF32(lay.nFilters, "l.rolling_variance_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		if lay.scales, err = rt.MallocF32(lay.nFilters, "l.scales_gpu"); err != nil {
			rt.PopFrame()
			return err
		}
		onesF := make([]float32, lay.nFilters)
		for i := range onesF {
			onesF[i] = 1
		}
		if err := rt.Memset(lay.rollingMean, 0, uint64(4*lay.nFilters)); err != nil {
			rt.PopFrame()
			return err
		}
		if err := rt.CopyF32ToDevice(lay.rollingVar, onesF); err != nil {
			rt.PopFrame()
			return err
		}
		if err := rt.CopyF32ToDevice(lay.scales, onesF); err != nil {
			rt.PopFrame()
			return err
		}
		rt.PopFrame()
		layers = append(layers, lay)
	}

	// The network input (the im2col-ed image): uploaded once per forward
	// pass in both variants — traffic the optimization does not remove.
	rt.PushFrame(callpath.Frame{Func: "forward_network_gpu", File: "network_kernels.cu", Line: 60})
	dInput, err := rt.MallocF32(2*outputs, "net.input_gpu")
	if err != nil {
		rt.PopFrame()
		return err
	}
	rt.PopFrame()
	img := make([]float32, 2*outputs)
	for i := range img {
		img[i] = float32(r.NormFloat64())
	}

	// forward_convolutional_layer_gpu per layer.
	for li := range layers {
		lay := &layers[li]
		rt.PushFrame(callpath.Frame{Func: "forward_convolutional_layer_gpu", File: "convolutional_kernels.cu", Line: 390})

		// The layer's im2col input buffer travels in both variants.
		if err := rt.CopyF32ToDevice(dInput, img); err != nil {
			rt.PopFrame()
			return err
		}

		if v == Original {
			// fill_ongpu(l.outputs*l.batch, 0, l.output_gpu, 1)
			rt.PushFrame(callpath.Frame{Func: "fill_ongpu", File: "blas_kernels.cu", Line: 218})
			fill := &gpu.GoKernel{
				Name: "fill_kernel",
				Func: func(t *gpu.Thread) {
					i := t.GlobalID()
					if i >= lay.outputs {
						return
					}
					t.StoreF32(0, uint64(lay.outputGPU)+uint64(4*i), 0)
				},
			}
			if err := rt.Launch(fill, gpu.Dim1((lay.outputs+255)/256), gpu.Dim1(256)); err != nil {
				rt.PopFrame()
				rt.PopFrame()
				return err
			}
			rt.PopFrame()
		}

		// gemm_ongpu(..., beta, l.output_gpu): beta=1 in the original
		// (accumulate over l.output_gpu's zeros), beta=0 in the fix.
		beta := float32(1)
		if v == Optimized {
			beta = 0
		}
		rt.PushFrame(callpath.Frame{Func: "gemm_ongpu", File: "gemm.c", Line: 220})
		gemm := &gpu.GoKernel{
			Name: "gemm_kernel",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= lay.outputs {
					return
				}
				// Dot product over a weight tile and the input window.
				base := uint64(lay.weights) + uint64(4*((i*7)%(lay.nWeights-24)))
				t.BulkLoad(0, base, 24, 4, gpu.KindFloat)
				t.BulkLoad(3, uint64(dInput)+uint64(4*i), 2, 4, gpu.KindFloat)
				wv := t.LoadF32(4, base)
				acc := wv * float32(i%13)
				t.CountFP32(52)
				if beta != 0 {
					// The redundant read of the zero-filled output.
					c := t.LoadF32(1, uint64(lay.outputGPU)+uint64(4*i))
					acc += beta * c
					t.CountFP32(2)
				}
				t.StoreF32(2, uint64(lay.outputGPU)+uint64(4*i), acc)
			},
		}
		if err := rt.Launch(gemm, gpu.Dim1((lay.outputs+255)/256), gpu.Dim1(256)); err != nil {
			rt.PopFrame()
			rt.PopFrame()
			return err
		}
		rt.PopFrame()

		// Batch normalization: normalize each output with the per-filter
		// rolling statistics and apply the affine scale. rolling_mean is
		// all zeros and scales all ones (the single value / frequent
		// values patterns the paper's Table 1 marks for Darknet).
		rt.PushFrame(callpath.Frame{Func: "forward_batchnorm_layer_gpu", File: "batchnorm_layer.c", Line: 176})
		bn := &gpu.GoKernel{
			Name: "normalize_kernel",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= lay.outputs {
					return
				}
				f := uint64(4 * (i % lay.nFilters))
				x := t.LoadF32(0, uint64(lay.outputGPU)+uint64(4*i))
				mean := t.LoadF32(1, uint64(lay.rollingMean)+f)
				variance := t.LoadF32(2, uint64(lay.rollingVar)+f)
				scale := t.LoadF32(3, uint64(lay.scales)+f)
				t.CountFP32(5)
				t.StoreF32(4, uint64(lay.outputGPU)+uint64(4*i), scale*(x-mean)/(variance+1e-5))
			},
		}
		if err := rt.Launch(bn, gpu.Dim1((lay.outputs+255)/256), gpu.Dim1(256)); err != nil {
			rt.PopFrame()
			rt.PopFrame()
			return err
		}
		rt.PopFrame()

		// Leaky-ReLU activation in place.
		rt.PushFrame(callpath.Frame{Func: "activate_array_ongpu", File: "activation_kernels.cu", Line: 473})
		act := &gpu.GoKernel{
			Name: "activate_array_leaky_kernel",
			Func: func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= lay.outputs {
					return
				}
				x := t.LoadF32(0, uint64(lay.outputGPU)+uint64(4*i))
				t.CountFP32(2)
				if x < 0 {
					x *= 0.1
				}
				t.StoreF32(1, uint64(lay.outputGPU)+uint64(4*i), x)
			},
		}
		if err := rt.Launch(act, gpu.Dim1((lay.outputs+255)/256), gpu.Dim1(256)); err != nil {
			rt.PopFrame()
			rt.PopFrame()
			return err
		}
		rt.PopFrame()

		// Activation snapshot copy into l.x_gpu (kept on device).
		if err := rt.MemcpyD2D(lay.xGPU, lay.outputGPU, uint64(4*lay.outputs)); err != nil {
			rt.PopFrame()
			return err
		}
		rt.PopFrame()
	}

	out := make([]float32, 1024)
	rt.PushFrame(callpath.Frame{Func: "get_network_output_gpu", File: "network_kernels.cu", Line: 530})
	defer rt.PopFrame()
	return rt.CopyF32FromDevice(out, layers[len(layers)-1].outputGPU)
}

// ---------------------------------------------------------------------------
// QMCPACK — ValueExpert reports the redundant values pattern, but the
// inefficiency sits outside the bottleneck for the given input, so the
// optimization does not move the needle (Table 3: 1.00× memory). The
// reproduction has a small redundant re-initialization next to a dominant
// spline-evaluation loop.
// ---------------------------------------------------------------------------
type qmcpack struct{ size }

func (*qmcpack) Name() string         { return "QMCPACK" }
func (*qmcpack) HotKernels() []string { return nil }
func (*qmcpack) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}
func (*qmcpack) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}

func (w *qmcpack) Run(rt *cuda.Runtime, v Variant) error {
	n := w.scaled(512 << 10)
	small := 1024

	rt.PushFrame(callpath.Frame{Func: "einspline_spo", File: "EinsplineSPODeviceImpCUDA.cu", Line: 77})
	defer rt.PopFrame()

	dSpline, err := rt.MallocF64(n, "spline_coefs")
	if err != nil {
		return err
	}
	dPhase, err := rt.MallocF64(small, "phase_factors")
	if err != nil {
		return err
	}
	coefs := make([]float64, n)
	r := rng(12)
	for i := range coefs {
		coefs[i] = r.Float64()
	}
	if err := rt.CopyF64ToDevice(dSpline, coefs); err != nil {
		return err
	}
	if err := rt.Memset(dPhase, 0, uint64(8*small)); err != nil {
		return err
	}

	// The redundant part: phase factors are re-zeroed every step even
	// though nothing wrote them in between. The fix removes the repeat.
	zeroPhase := &gpu.GoKernel{
		Name: "zero_phase",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= small {
				return
			}
			t.StoreF64(0, uint64(dPhase)+uint64(8*i), 0)
		},
	}
	evaluate := &gpu.GoKernel{
		Name: "evaluate_v",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			c := t.LoadF64(0, uint64(dSpline)+uint64(8*i))
			acc := c
			for k := 0; k < 8; k++ {
				acc = acc*0.5 + c
			}
			t.CountFP64(16)
			t.StoreF64(1, uint64(dSpline)+uint64(8*i), acc)
		},
	}
	for step := 0; step < 3; step++ {
		if v == Original || step == 0 {
			if err := rt.Launch(zeroPhase, gpu.Dim1((small+255)/256), gpu.Dim1(256)); err != nil {
				return err
			}
		}
		if err := rt.Launch(evaluate, gpu.Dim1((n+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}
	out := make([]float64, small)
	return rt.CopyF64FromDevice(out, dPhase)
}

// ---------------------------------------------------------------------------
// Castro — the cellconslin_slopes_mmlim kernel from AMReX (§8.3): the
// limiter factor `a` is 1.0 for almost every cell of the Sedov input, so
// slopes *= a is identity computation leaving values unchanged (redundant
// values). Fix: conditionally bypass when a == 1.0 (1.27× / 1.24×).
// ---------------------------------------------------------------------------
type castro struct{ size }

func (*castro) Name() string         { return "Castro" }
func (*castro) HotKernels() []string { return []string{"cellconslin_slopes_mmlim"} }
func (*castro) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}
func (*castro) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues}
}

func (w *castro) Run(rt *cuda.Runtime, v Variant) error {
	cells := w.scaled(128 << 10)
	const ncomp = 4

	rt.PushFrame(callpath.Frame{Func: "MLNodeLaplacian::prepareForSolve", File: "AMReX_MLNodeLap_K.H", Line: 1})
	defer rt.PopFrame()

	dSlopes, err := rt.MallocF64(cells*ncomp, "slopes")
	if err != nil {
		return err
	}
	dFactor, err := rt.MallocF64(cells, "alpha")
	if err != nil {
		return err
	}
	slopes := make([]float64, cells*ncomp)
	factor := make([]float64, cells)
	r := rng(13)
	for i := range slopes {
		slopes[i] = r.Float64()
	}
	for i := range factor {
		// The Sedov blast wave touches ~3% of cells; everywhere else the
		// minmod limiter is inactive (a == 1.0).
		if r.Intn(100) < 3 {
			factor[i] = r.Float64()
		} else {
			factor[i] = 1.0
		}
	}
	if err := rt.CopyF64ToDevice(dSlopes, slopes); err != nil {
		return err
	}
	if err := rt.CopyF64ToDevice(dFactor, factor); err != nil {
		return err
	}

	kernel := &gpu.GoKernel{
		Name: "cellconslin_slopes_mmlim",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= cells {
				return
			}
			// The slope reconstruction reads the cell's hydro state window
			// regardless of the limiter (both variants).
			win := i * ncomp
			if win+24 > cells*ncomp {
				win = cells*ncomp - 24
			}
			t.BulkLoad(3, uint64(dSlopes)+uint64(8*win), 24, 8, gpu.KindFloat)
			a := t.LoadF64(0, uint64(dFactor)+uint64(8*i))
			if v == Optimized && a == 1.0 {
				// Line 5 of Listing 5: skip the identity scaling.
				return
			}
			for k := 0; k < ncomp; k++ {
				s := t.LoadF64(1, uint64(dSlopes)+uint64(8*(i*ncomp+k)))
				t.CountFP64(2)
				t.StoreF64(2, uint64(dSlopes)+uint64(8*(i*ncomp+k)), s*a)
			}
		},
	}
	for it := 0; it < 2; it++ {
		if err := rt.Launch(kernel, gpu.Dim1((cells+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
	}
	out := make([]float64, 1024)
	return rt.CopyF64FromDevice(out, dSlopes)
}

// ---------------------------------------------------------------------------
// BarraCUDA — sequence alignment (§8.4). Two inefficiencies:
// copy_sequences_to_cuda_memory uploads global_sequences_index even when
// it is empty (redundant copies; fix: size check), and the global_alns
// result array is 99.6% zeros (frequent values; fix: record hit positions
// and download only those). Paper: kernel 1.06×, memory 1.13×.
// ---------------------------------------------------------------------------
type barracuda struct{ size }

func (*barracuda) Name() string         { return "BarraCUDA" }
func (*barracuda) HotKernels() []string { return []string{"cuda_inexact_match_caller"} }
func (*barracuda) ExpectedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.FrequentValues}
}
func (*barracuda) OptimizedPatterns() []vpattern.Kind {
	return []vpattern.Kind{vpattern.RedundantValues, vpattern.FrequentValues}
}

func (w *barracuda) Run(rt *cuda.Runtime, v Variant) error {
	reads := w.scaled(128 << 10)
	const batches = 4

	rt.PushFrame(callpath.Frame{Func: "cuda_alignment_core", File: "barracuda.cu", Line: 1120})
	defer rt.PopFrame()

	dSeqIdx, err := rt.MallocI32(reads, "global_sequences_index")
	if err != nil {
		return err
	}
	dSeqs, err := rt.MallocU8(reads*16, "global_sequences")
	if err != nil {
		return err
	}
	dAlns, err := rt.MallocI32(reads, "global_alns")
	if err != nil {
		return err
	}
	dHits, err := rt.MallocI32(reads, "hits")
	if err != nil {
		return err
	}
	if err := rt.Memset(dAlns, 0, uint64(4*reads)); err != nil {
		return err
	}
	if err := rt.Memset(dHits, 0, uint64(4*reads)); err != nil {
		return err
	}

	r := rng(14)
	seqs := make([]byte, reads*16)
	for i := range seqs {
		seqs[i] = byte(r.Intn(4))
	}
	idx := make([]int32, reads)

	match := &gpu.GoKernel{
		Name: "cuda_inexact_match_caller",
		Func: func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= reads {
				return
			}
			var score int32
			for k := 0; k < 4; k++ {
				b := t.LoadU8(0, uint64(dSeqs)+uint64(i*16+k))
				if b == 3 {
					score++
				}
				t.CountInt(2)
			}
			// 99.6% of reads do not align: write zero (frequent values).
			aligned := score >= 4
			if v == Optimized {
				if aligned {
					t.StoreI32(1, uint64(dAlns)+uint64(4*i), score)
					t.StoreI32(2, uint64(dHits)+uint64(4*i), 1)
				}
				return
			}
			if aligned {
				t.StoreI32(1, uint64(dAlns)+uint64(4*i), score)
			} else {
				t.StoreI32(1, uint64(dAlns)+uint64(4*i), 0)
			}
		},
	}

	for b := 0; b < batches; b++ {
		// Each batch brings fresh sequence data (both variants)...
		if err := rt.CopyU8ToDevice(dSeqs, seqs); err != nil {
			return err
		}
		// ...but global_sequences_index is empty and unchanged; the
		// original still re-uploads it every batch (the §8.4 size-check
		// fix skips it after the first).
		if v == Original || b == 0 {
			if err := rt.CopyI32ToDevice(dSeqIdx, idx); err != nil {
				return err
			}
		}
		if err := rt.Launch(match, gpu.Dim1((reads+255)/256), gpu.Dim1(256)); err != nil {
			return err
		}
		if v == Original {
			out := make([]int32, reads)
			if err := rt.CopyI32FromDevice(out, dAlns); err != nil {
				return err
			}
		} else {
			// Download only the hit bitmap plus a small result window.
			hits := make([]int32, reads/64)
			if err := rt.CopyI32FromDevice(hits, dHits); err != nil {
				return err
			}
		}
	}
	return nil
}
