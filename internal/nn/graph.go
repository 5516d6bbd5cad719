package nn

// opKind identifies one autograd operation on the typed tape.
type opKind uint8

const (
	opMatMul opKind = iota
	opAdd
	opMul
	opTanh
	opSigmoid
	opConcatRow2
	opConcatRowN
	opLookupRow
	opDropout
	opRowsToMatrix
	opSoftmaxRow
	opAttendDot
	opWeightedSumRows
	opNLLPointerMix
	opSliceRow
	opAffineRow
	opLSTMStep
	opAttendSoftmaxContext
	opAffineBatch
	opLSTMStepBatch
	opAttendBatch
	opSoftmaxRows
	opNLLPointerMixBatch
	opLookupRows
	opConcatCols2
	opPackMemory
	opNLLPointerMixCtx
)

// tapeOp is one record of the typed tape: the operands, outputs and stashed
// forward values an op needs to run its backward pass. A single record type
// (rather than a closure per op) keeps the tape a flat, reusable slice with
// no per-op heap allocation.
type tapeOp struct {
	kind opKind

	a, b, c *Tensor // inputs (meaning is per-kind)
	out     *Tensor // primary output
	out2    *Tensor // secondary output (LSTM cell state)
	aux     *Tensor // stashed activations (LSTM gates, attention weights, dropout mask)
	aux2    *Tensor // scratch (LSTM tanh(c), attention score gradients)

	cell *LSTMCell // opLSTMStep / opLSTMStepBatch
	list []*Tensor // opConcatRowN parts / opRowsToMatrix rows / opPackMemory rows
	mask []bool    // opNLLPointerMix copy mask / opLSTMStepBatch row-active mask

	idx  int     // lookup row / slice from / target vocab index
	idx2 int     // slice to
	fval float64 // opNLLPointerMix mixed probability p

	// Batched-kernel operands. Slices are retained until Backward/Reset, so
	// callers must give every record a distinct backing (the model's batch
	// scratch slices positions out of one growing buffer per step).
	ints  []int     // opLookupRows ids / opAttendBatch+opPackMemory lens / opNLLPointerMixBatch vocab indices
	fvals []float64 // opNLLPointerMixBatch per-row gradient scales
	masks [][]bool  // opNLLPointerMixBatch per-row copy masks
}

// Graph is the autograd tape. Operations append typed records; Backward
// dispatches them in reverse through a single switch. A graph built with
// NeedsGrad=false skips recording (inference mode). When constructed with
// NewGraphArena, all intermediate tensors come from the arena and Reset
// recycles them between training steps, so a steady-state step allocates
// (near) nothing.
//
//genielint:arena-source
type Graph struct {
	NeedsGrad bool
	arena     *Arena
	tape      []tapeOp
}

// NewGraph returns a tape that records gradients; intermediates are
// heap-allocated (no arena).
func NewGraph(needsGrad bool) *Graph { return &Graph{NeedsGrad: needsGrad} }

// NewGraphArena returns a tape whose intermediate tensors are drawn from
// arena. Call Reset between steps to recycle them; tensors obtained from the
// graph are invalid after Reset. Parameters stay heap-owned by the caller.
func NewGraphArena(needsGrad bool, arena *Arena) *Graph {
	return &Graph{NeedsGrad: needsGrad, arena: arena}
}

// NewTensor allocates an intermediate tensor owned by this graph: from the
// arena when the graph has one (recycled on Reset), from the heap otherwise.
func (g *Graph) NewTensor(rows, cols int) *Tensor {
	if g.arena != nil {
		return g.arena.Get(rows, cols)
	}
	return NewTensor(rows, cols)
}

func (g *Graph) push(o tapeOp) {
	if g.NeedsGrad {
		g.tape = append(g.tape, o)
	}
}

// Backward runs the tape in reverse order and truncates it (keeping
// capacity). The caller seeds the gradient of the loss tensor (typically via
// the loss ops, which do it themselves).
func (g *Graph) Backward() {
	for i := len(g.tape) - 1; i >= 0; i-- {
		g.backstep(&g.tape[i])
	}
	g.tape = g.tape[:0]
}

// Reset truncates the tape and recycles all arena intermediates. Any tensor
// previously returned by graph ops or NewTensor must not be used afterwards.
func (g *Graph) Reset() {
	g.tape = g.tape[:0]
	if g.arena != nil {
		g.arena.Reset()
	}
}

// Ops returns the current tape length (diagnostics).
func (g *Graph) Ops() int { return len(g.tape) }

// backstep runs one op's backward pass. Each case accumulates input
// gradients exactly as the closure-based tape used to, in the same order, so
// the typed tape is a drop-in numeric replacement.
func (g *Graph) backstep(o *tapeOp) {
	switch o.kind {
	case opMatMul:
		backMatMul(o.a, o.b, o.out)
	case opAdd:
		a, b, out := o.a, o.b, o.out
		for i := range out.DW {
			a.DW[i] += out.DW[i]
			b.DW[i] += out.DW[i]
		}
	case opMul:
		a, b, out := o.a, o.b, o.out
		for i := range out.DW {
			a.DW[i] += out.DW[i] * b.W[i]
			b.DW[i] += out.DW[i] * a.W[i]
		}
	case opTanh:
		a, out := o.a, o.out
		for i := range out.DW {
			a.DW[i] += out.DW[i] * (1 - out.W[i]*out.W[i])
		}
	case opSigmoid:
		a, out := o.a, o.out
		for i := range out.DW {
			a.DW[i] += out.DW[i] * out.W[i] * (1 - out.W[i])
		}
	case opConcatRow2:
		a, b, out := o.a, o.b, o.out
		for i := range a.W {
			a.DW[i] += out.DW[i]
		}
		off := a.Cols
		for i := range b.W {
			b.DW[i] += out.DW[off+i]
		}
	case opConcatRowN:
		off := 0
		for _, p := range o.list {
			for i := range p.W {
				p.DW[i] += o.out.DW[off+i]
			}
			off += p.Cols
		}
	case opLookupRow:
		base := o.idx * o.a.Cols
		for i := range o.out.DW {
			o.a.DW[base+i] += o.out.DW[i]
		}
	case opDropout:
		mask := o.aux.W
		for i := range o.out.DW {
			o.a.DW[i] += o.out.DW[i] * mask[i]
		}
	case opRowsToMatrix:
		n := o.list[0].Cols
		for i, r := range o.list {
			for j := 0; j < n; j++ {
				r.DW[j] += o.out.DW[i*n+j]
			}
		}
	case opSoftmaxRow:
		backSoftmaxInto(o.out.W, o.out.DW, o.a.DW)
	case opAttendDot:
		backAttendDot(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opWeightedSumRows:
		// ctx = alpha·H is a row product with alpha the left operand.
		backRowMatMul(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opNLLPointerMix:
		backNLLPointerMix(o)
	case opSliceRow:
		a, out := o.a, o.out
		for i := range out.DW {
			a.DW[o.idx+i] += out.DW[i]
		}
	case opAffineRow:
		backAffineRow(o.a, o.b, o.c, o.out)
	case opLSTMStep:
		backLSTMStep(o)
	case opAttendSoftmaxContext:
		backAttendSoftmaxContext(o)
	case opAffineBatch:
		backAffineBatch(o.a, o.b, o.c, o.out)
	case opLSTMStepBatch:
		backLSTMStepBatch(o)
	case opAttendBatch:
		backAttendBatch(o)
	case opSoftmaxRows:
		backSoftmaxRows(o.a, o.out)
	case opNLLPointerMixBatch:
		backNLLPointerMixBatch(o)
	case opLookupRows:
		for i, id := range o.ints {
			base := id * o.a.Cols
			orow := o.out.DW[i*o.out.Cols : (i+1)*o.out.Cols]
			for j, d := range orow {
				o.a.DW[base+j] += d
			}
		}
	case opConcatCols2:
		backConcatCols2(o.a, o.b, o.out)
	case opPackMemory:
		backPackMemory(o)
	case opNLLPointerMixCtx:
		backNLLPointerMixCtx(o)
	}
}

// backMatMul is the single-row backward once per row of a, rows ascending.
func backMatMul(a, b, out *Tensor) {
	m, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		backRowMatMul(a.W[i*m:(i+1)*m], a.DW[i*m:(i+1)*m], b.W, b.DW, out.DW[i*p:(i+1)*p])
	}
}

func backNLLPointerMix(o *tapeOp) {
	pvocab, alpha, pgen := o.a, o.b, o.c
	gate := pgen.W[0]
	var pv, pc float64
	if o.idx >= 0 {
		pv = pvocab.W[o.idx]
	}
	for i, m := range o.mask {
		if m {
			pc += alpha.W[i]
		}
	}
	const eps = 1e-9
	dp := -1 / (o.fval + eps)
	if o.idx >= 0 {
		pvocab.DW[o.idx] += dp * gate
	}
	for i, m := range o.mask {
		if m {
			alpha.DW[i] += dp * (1 - gate)
		}
	}
	pgen.DW[0] += dp * (pv - pc)
}

// backNLLPointerMixCtx is the two-memory pointer mixture: the copy mass
// splits between the source attention (alpha, masks[0]) and the context
// attention (beta, masks[1]) by the context gate. Operands: a=pvocab,
// b=alpha, c=pgen, aux=beta, aux2=cgate.
func backNLLPointerMixCtx(o *tapeOp) {
	pvocab, alpha, pgen, beta, cgate := o.a, o.b, o.c, o.aux, o.aux2
	g, g2 := pgen.W[0], cgate.W[0]
	var pv, ps, pc float64
	if o.idx >= 0 {
		pv = pvocab.W[o.idx]
	}
	for i, m := range o.masks[0] {
		if m {
			ps += alpha.W[i]
		}
	}
	for i, m := range o.masks[1] {
		if m {
			pc += beta.W[i]
		}
	}
	const eps = 1e-9
	dp := -1 / (o.fval + eps)
	if o.idx >= 0 {
		pvocab.DW[o.idx] += dp * g
	}
	for i, m := range o.masks[0] {
		if m {
			alpha.DW[i] += dp * (1 - g) * (1 - g2)
		}
	}
	for i, m := range o.masks[1] {
		if m {
			beta.DW[i] += dp * (1 - g) * g2
		}
	}
	pgen.DW[0] += dp * (pv - ((1-g2)*ps + g2*pc))
	cgate.DW[0] += dp * (1 - g) * (pc - ps)
}

func backAffineRow(x, w, b, out *Tensor) {
	// Bias: the fused Add's backward.
	for j, d := range out.DW {
		b.DW[j] += d
	}
	backRowMatMul(x.W, x.DW, w.W, w.DW, out.DW)
}

func backLSTMStep(o *tapeOp) {
	cell := o.cell
	x, h, cPrev := o.a, o.b, o.c
	hNext, cNext := o.out, o.out2
	acts, tc := o.aux, o.aux2
	H := cell.Hidden
	dG := acts.DW // scratch for pre-activation gradients
	for j := 0; j < H; j++ {
		iv := acts.W[j]
		fv := acts.W[H+j]
		ov := acts.W[2*H+j]
		cv := acts.W[3*H+j]
		tcj := tc.W[j]
		dh := hNext.DW[j]
		dO := dh * tcj
		dtc := dh * ov
		cNext.DW[j] += dtc * (1 - tcj*tcj)
		dc := cNext.DW[j]
		dF := dc * cPrev.W[j]
		cPrev.DW[j] += dc * fv
		dI := dc * cv
		dCand := dc * iv
		dG[j] = dI * iv * (1 - iv)
		dG[H+j] = dF * fv * (1 - fv)
		dG[2*H+j] = dO * ov * (1 - ov)
		dG[3*H+j] = dCand * (1 - cv*cv)
	}
	n := 4 * H
	for j := 0; j < n; j++ {
		cell.B.DW[j] += dG[j]
	}
	backRowMatMul(h.W, h.DW, cell.Wh.W, cell.Wh.DW, dG)
	backRowMatMul(x.W, x.DW, cell.Wx.W, cell.Wx.DW, dG)
}

func backAttendSoftmaxContext(o *tapeOp) {
	q, H := o.a, o.b
	ctx, alpha, sc := o.out, o.aux, o.aux2
	// WeightedSumRows backward (ctx = alpha·H).
	backRowMatMul(alpha.W, alpha.DW, H.W, H.DW, ctx.DW)
	// SoftmaxRow backward (alpha = softmax(scores)) into the score scratch.
	backSoftmaxInto(alpha.W, alpha.DW, sc.DW)
	// AttendDot backward (scores = q·Hᵀ).
	backAttendDot(q.W, q.DW, H.W, H.DW, sc.DW)
}
