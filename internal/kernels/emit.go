package kernels

// Kernel emission: each Op expands into the sequence of GPU kernels a real
// framework would launch for its forward pass, backward pass, and weight
// update. Kernel names follow the cuDNN/cuBLAS/framework conventions that
// appear verbatim in the paper's Tables 5 and 6.

// gemmName returns the GEMM kernel name in the given framework style.
func gemmName(style NameStyle) string {
	switch style {
	case StyleTF:
		return "magma_lds128_sgemm_kernel"
	case StyleMXNet:
		return "maxwell_sgemm_128x64_nn"
	default:
		return "cublas::sgemm_128x128"
	}
}

// pointwiseName returns the elementwise kernel name per framework.
func pointwiseName(style NameStyle, what string) string {
	switch style {
	case StyleTF:
		if what == "bias" {
			return "tensorflow::BiasNHWCKernel"
		}
		return "Eigen::internal::EigenMetaKernel"
	case StyleMXNet:
		return "ZN5mxnet2op8mxnet_op20mxnet_generic_kernel"
	default:
		return "cntk::Microsoft::MSR::CNTK::_launchUnaryTensorOp"
	}
}

// activationName returns the activation kernel name per framework.
func activationName(style NameStyle, dir string) string {
	switch style {
	case StyleMXNet, StyleCNTK:
		return "cudnn::detail::activation_" + dir + "_4d_kernel"
	default:
		return "Eigen::internal::EigenMetaKernel"
	}
}

// gemm builds a GEMM kernel for C[m,n] = A[m,k] @ B[k,n].
func gemm(style NameStyle, m, k, n int) Kernel {
	return Kernel{
		Name:  gemmName(style),
		Class: GEMM,
		FLOPs: 2 * float64(m) * float64(k) * float64(n),
		Bytes: 4 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n)),
	}
}

// pointwise builds an elementwise kernel over elems elements with the
// given FLOPs-per-element and streams-per-element.
func pointwise(name string, elems int64, flopsPer, bytesPer float64) Kernel {
	return Kernel{Name: name, Class: Pointwise, FLOPs: float64(elems) * flopsPer, Bytes: float64(elems) * bytesPer}
}

// Forward returns the forward-pass kernels of o at batch size n.
func (o *Op) Forward(n int, style NameStyle) []Kernel {
	o.validate()
	N := float64(n)
	switch o.Kind {
	case OpConv2D:
		out := float64(o.OutH()) * float64(o.OutW())
		flops := 2 * float64(o.K*o.K*o.InC) * float64(o.OutC) * out * N
		bytes := 4 * (N*float64(o.InC*o.H*o.W) + N*float64(o.OutC)*out + float64(o.ParamElems()))
		eff, _ := algoProfile(o.Algo)
		ks := []Kernel{{Name: convKernelName(o.Algo, "fw"), Class: Conv, FLOPs: flops, Bytes: bytes, EffScale: eff}}
		ks = append(ks, pointwise(pointwiseName(style, "bias"), int64(N*float64(o.OutC)*out), 1, 8))
		return ks
	case OpDense:
		return []Kernel{
			gemm(style, n*o.Rows, o.In, o.Out),
			pointwise(pointwiseName(style, "bias"), int64(n*o.Rows*o.Out), 1, 8),
		}
	case OpBatchNorm:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  "cudnn::detail::bn_fw_tr_1C11_kernel_new",
			Class: BatchNorm,
			FLOPs: 10 * float64(elems),
			Bytes: 12 * float64(elems), // two read passes + one write
		}}
	case OpLayerNorm:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  pointwiseName(style, "layernorm") + "<LayerNormFused>",
			Class: BatchNorm,
			FLOPs: 10 * float64(elems),
			Bytes: 12 * float64(elems),
		}}
	case OpActivation:
		elems := int64(N) * int64(o.elems())
		k := pointwise(activationName(style, "fw"), elems, 2, 8)
		return []Kernel{k}
	case OpMaxPool, OpAvgPool:
		outElems := int64(N) * o.OutputElemsPerSample()
		return []Kernel{{
			Name:  "cudnn::detail::pooling_fw_4d_kernel",
			Class: Pooling,
			FLOPs: float64(outElems) * float64(o.K*o.K),
			Bytes: 4 * (N*float64(o.InC*o.H*o.W) + float64(outElems)),
		}}
	case OpSoftmax:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  "cudnn::detail::softmax_fw_kernel",
			Class: SoftmaxClass,
			FLOPs: 5 * float64(elems),
			Bytes: 12 * float64(elems),
		}}
	case OpEmbedding:
		elems := int64(N) * int64(o.T) * int64(o.Dim)
		return []Kernel{{
			Name:  pointwiseName(style, "gather") + "<Gather>",
			Class: EmbeddingLookup,
			FLOPs: 0,
			Bytes: 8 * float64(elems),
		}}
	case OpElemAdd:
		elems := int64(N) * int64(o.elems())
		return []Kernel{pointwise(pointwiseName(style, "add"), elems, 1, 12)}
	case OpLoss:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  "cudnn::detail::softmax_fw_kernel",
			Class: SoftmaxClass,
			FLOPs: 6 * float64(elems),
			Bytes: 12 * float64(elems),
		}}
	case OpRNNSeq:
		return o.fusedRNNKernels(n, 1, "fw")
	case OpLSTMSeq:
		return o.lstmKernels(n, style, "fw")
	case OpAttention:
		return o.attentionKernels(n, style, "fw")
	default:
		return nil
	}
}

// Backward returns the backward-pass kernels of o at batch size n.
// Backward work is roughly 2x the forward (gradient w.r.t. data and
// w.r.t. weights).
func (o *Op) Backward(n int, style NameStyle) []Kernel {
	o.validate()
	N := float64(n)
	switch o.Kind {
	case OpConv2D:
		out := float64(o.OutH()) * float64(o.OutW())
		flops := 2 * float64(o.K*o.K*o.InC) * float64(o.OutC) * out * N
		bytes := 4 * (N*float64(o.InC*o.H*o.W) + N*float64(o.OutC)*out + float64(o.ParamElems()))
		eff, _ := algoProfile(o.Algo)
		return []Kernel{
			{Name: "cudnn::detail::dgrad_engine", Class: Conv, FLOPs: flops, Bytes: bytes, EffScale: eff},
			{Name: "cudnn::detail::wgrad_alg0_engine", Class: Conv, FLOPs: flops, Bytes: bytes, EffScale: eff},
			pointwise(pointwiseName(style, "biasgrad"), int64(N*float64(o.OutC)*out), 1, 4),
		}
	case OpDense:
		return []Kernel{
			gemm(style, o.In, n*o.Rows, o.Out), // dW = xᵀ @ g
			gemm(style, n*o.Rows, o.Out, o.In), // dx = g @ Wᵀ
			pointwise(pointwiseName(style, "biasgrad"), int64(n*o.Rows*o.Out), 1, 4),
		}
	case OpBatchNorm:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  "cudnn::detail::bn_bw_1C11_kernel_new",
			Class: BatchNorm,
			FLOPs: 15 * float64(elems),
			Bytes: 16 * float64(elems),
		}}
	case OpLayerNorm:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  pointwiseName(style, "layernorm") + "<LayerNormGradFused>",
			Class: BatchNorm,
			FLOPs: 15 * float64(elems),
			Bytes: 16 * float64(elems),
		}}
	case OpActivation:
		elems := int64(N) * int64(o.elems())
		return []Kernel{pointwise(activationName(style, "bw"), elems, 2, 12)}
	case OpMaxPool, OpAvgPool:
		outElems := int64(N) * o.OutputElemsPerSample()
		return []Kernel{{
			Name:  "cudnn::detail::pooling_bw_4d_kernel",
			Class: Pooling,
			FLOPs: float64(outElems) * float64(o.K*o.K),
			Bytes: 4 * (N*float64(o.InC*o.H*o.W) + float64(outElems)),
		}}
	case OpSoftmax, OpLoss:
		elems := int64(N) * int64(o.elems())
		return []Kernel{{
			Name:  "cudnn::detail::softmax_bw_kernel",
			Class: SoftmaxClass,
			FLOPs: 4 * float64(elems),
			Bytes: 12 * float64(elems),
		}}
	case OpEmbedding:
		elems := int64(N) * int64(o.T) * int64(o.Dim)
		return []Kernel{{
			Name:  pointwiseName(style, "scatteradd") + "<ScatterAdd>",
			Class: EmbeddingLookup,
			FLOPs: float64(elems),
			Bytes: 12 * float64(elems),
		}}
	case OpElemAdd:
		return nil // gradient of add is pass-through
	case OpRNNSeq:
		return o.fusedRNNKernels(n, 1, "bw")
	case OpLSTMSeq:
		return o.lstmKernels(n, style, "bw")
	case OpAttention:
		return o.attentionKernels(n, style, "bw")
	default:
		return nil
	}
}

// Update returns the weight-update kernels (one fused optimizer kernel per
// parameter tensor group).
func (o *Op) Update(style NameStyle) []Kernel {
	p := o.ParamElems()
	if p == 0 {
		return nil
	}
	name := pointwiseName(style, "sgd") + "<ApplyGradientDescent>"
	return []Kernel{{Name: name, Class: OptimizerClass, FLOPs: 4 * float64(p), Bytes: 16 * float64(p)}}
}

// lstmKernels emits the per-timestep kernel stream of an unfused LSTM.
// Each timestep launches two GEMMs (input and recurrent projections) and a
// fused gate kernel; the backward adds a weight-gradient GEMM. The sheer
// number of small launches — T steps x several kernels — is what starves
// the GPU in the paper's Observation 5.
func (o *Op) lstmKernels(n int, style NameStyle, dir string) []Kernel {
	const gates = 4 // input, forget, cell and output
	gh := gates * o.Hidden
	var ks []Kernel
	gateName := "cudnn::detail::lstm_" + dir + "_pointwise"
	for t := 0; t < o.T; t++ {
		if dir == "fw" {
			gate := pointwise(gateName, int64(n*o.Hidden), float64(6*gates), 8*float64(gates))
			gate.Sync = true // recurrent dependency: host loop step boundary
			ks = append(ks,
				gemm(style, n, o.Input, gh),
				gemm(style, n, o.Hidden, gh),
				gate,
			)
		} else {
			gate := pointwise(gateName, int64(n*o.Hidden), float64(8*gates), 12*float64(gates))
			gate.Sync = true
			ks = append(ks,
				gate,
				gemm(style, o.Input, n, gh),  // dWx
				gemm(style, o.Hidden, n, gh), // dWh
				gemm(style, n, gh, o.Input),  // dx
				gemm(style, n, gh, o.Hidden), // dh
			)
		}
	}
	return ks
}

// fusedRNNKernels emits a single fused whole-sequence kernel per direction,
// the cuDNN RNN API path that MXNet's Deep Speech 2 implementation uses.
// Unlike the per-step loop above it has no host sync points, which is why
// DS2's vanilla-RNN stack reaches high GPU utilization while the unfused
// LSTM seq2seq models cannot (paper Observation 5).
func (o *Op) fusedRNNKernels(n, gates int, dir string) []Kernel {
	gh := gates * o.Hidden
	steps := float64(o.T)
	flops := steps * 2 * float64(n) * (float64(o.Input)*float64(gh) + float64(o.Hidden)*float64(gh))
	bytes := steps * 4 * float64(n) * float64(o.Input+3*o.Hidden)
	if dir == "bw" {
		flops *= 2
		bytes *= 1.5
	}
	return []Kernel{{
		Name:   "cudnn::detail::rnn_" + dir + "_persistent_kernel",
		Class:  GEMM,
		FLOPs:  flops,
		Bytes:  bytes + 4*float64(o.ParamElems()),
		Serial: o.T,
	}}
}

// attentionKernels emits a multi-head attention block's kernels: large
// dense projections and batched score/context GEMMs — few launches, big
// work, which is why the Transformer keeps GPUs busy where LSTMs cannot.
func (o *Op) attentionKernels(n int, style NameStyle, dir string) []Kernel {
	tok := n * o.SeqLen
	dh := o.Dim / o.Heads
	mult := 1.0
	if dir == "bw" {
		mult = 2 // dgrad + wgrad for each projection
	}
	scale := func(k Kernel) Kernel {
		k.FLOPs *= mult
		k.Bytes *= mult
		return k
	}
	ks := []Kernel{
		scale(gemm(style, tok, o.Dim, 3*o.Dim)), // fused QKV projection
		scale(Kernel{
			Name:  gemmName(style) + "<batched>",
			Class: GEMM,
			FLOPs: 2 * float64(n*o.Heads) * float64(o.SeqLen) * float64(o.SeqLen) * float64(dh) * mult,
			Bytes: 4 * float64(n*o.Heads) * (2*float64(o.SeqLen*dh) + float64(o.SeqLen*o.SeqLen)) * mult,
		}),
		{
			Name:  "cudnn::detail::softmax_" + dir + "_kernel",
			Class: SoftmaxClass,
			FLOPs: 5 * float64(n*o.Heads) * float64(o.SeqLen) * float64(o.SeqLen),
			Bytes: 12 * float64(n*o.Heads) * float64(o.SeqLen) * float64(o.SeqLen),
		},
		scale(Kernel{
			Name:  gemmName(style) + "<batched>",
			Class: GEMM,
			FLOPs: 2 * float64(n*o.Heads) * float64(o.SeqLen) * float64(o.SeqLen) * float64(dh) * mult,
			Bytes: 4 * float64(n*o.Heads) * (2*float64(o.SeqLen*dh) + float64(o.SeqLen*o.SeqLen)) * mult,
		}),
		scale(gemm(style, tok, o.Dim, o.Dim)), // output projection
	}
	return ks
}

// IterationKernels expands a whole model (a slice of ops) into the full
// per-iteration kernel stream: forward in graph order, backward in reverse
// order, then weight updates, each kernel tagged with its pass.
func IterationKernels(ops []*Op, batch int, style NameStyle) []Kernel {
	var ks []Kernel
	tag := func(p Phase, from int) {
		for i := from; i < len(ks); i++ {
			ks[i].Phase = p
		}
	}
	for _, o := range ops {
		ks = append(ks, o.Forward(batch, style)...)
	}
	tag(PhaseForward, 0)
	from := len(ks)
	for i := len(ops) - 1; i >= 0; i-- {
		ks = append(ks, ops[i].Backward(batch, style)...)
	}
	tag(PhaseBackward, from)
	from = len(ks)
	for _, o := range ops {
		ks = append(ks, o.Update(style)...)
	}
	tag(PhaseUpdate, from)
	return ks
}

// TotalFLOPs sums the FLOPs of a kernel stream.
func TotalFLOPs(ks []Kernel) float64 {
	var s float64
	for _, k := range ks {
		s += k.FLOPs
	}
	return s
}
