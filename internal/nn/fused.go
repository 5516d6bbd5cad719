package nn

// This file holds the fused kernels of the model's inner loop. Each fuses a
// chain of primitive ops into one forward pass and one tape record, while
// accumulating exactly the same floating-point expressions in the same
// order as the chain it replaces — so swapping a call site between the
// fused and unfused form does not change training trajectories.

// AffineRow computes x·W + b for a 1×in row in one pass; it fuses
// Add(MatMul(x, w), b).
func (g *Graph) AffineRow(x, w, b *Tensor) *Tensor {
	if x.Rows != 1 || x.Cols != w.Rows || b.Cols != w.Cols || b.Rows != 1 {
		panic("nn: AffineRow shape mismatch")
	}
	out := g.NewTensor(1, w.Cols)
	rowMatMulInto(x.W, w.W, out.W)
	for j := range out.W {
		out.W[j] += b.W[j]
	}
	g.push(tapeOp{kind: opAffineRow, a: x, b: w, c: b, out: out})
	return out
}

// lstmStep advances an LSTM cell one timestep in one fused pass: both gate
// matmuls, the bias add, the four activations, and the state update, with a
// single tape record. It fuses the chain
//
//	gates = Add(Add(MatMul(x, Wx), MatMul(h, Wh)), B)
//	i,f,o = Sigmoid(slice(gates, k)); cand = Tanh(slice(gates, 3))
//	cNext = Add(Mul(f, c), Mul(i, cand)); hNext = Mul(o, Tanh(cNext))
func (g *Graph) lstmStep(cell *LSTMCell, x, h, c *Tensor) (hNext, cNext *Tensor) {
	H := cell.Hidden
	n := 4 * H
	// pre.W accumulates x·Wx; pre.DW doubles as scratch for h·Wh during the
	// forward pass (this op's backward never reads pre).
	pre := g.NewTensor(1, n)
	rowMatMulInto(x.W, cell.Wx.W, pre.W)
	rowMatMulInto(h.W, cell.Wh.W, pre.DW)
	// acts stashes the activated gates [i|f|o|cand] for backward; its DW is
	// backward's pre-activation-gradient scratch.
	acts := g.NewTensor(1, n)
	tc := g.NewTensor(1, H)
	hNext = g.NewTensor(1, H)
	cNext = g.NewTensor(1, H)
	lstmCellRow(cell, pre.W, pre.DW, c.W, acts.W, tc.W, hNext.W, cNext.W)
	g.push(tapeOp{kind: opLSTMStep, cell: cell, a: x, b: h, c: c, out: hNext, out2: cNext, aux: acts, aux2: tc})
	return hNext, cNext
}

// lstmCellRow is the activation and state-update stage of one LSTM row, given
// x·Wx in pre and h·Wh in preH: it sums the gate pre-activations into pre,
// activates them into acts, and writes the new cell state, tanh(cNext) and
// hidden state.
func lstmCellRow(cell *LSTMCell, pre, preH, c, acts, tc, hNext, cNext []float64) {
	H := cell.Hidden
	for j, b := range cell.B.W {
		pre[j] = (pre[j] + preH[j]) + b
	}
	sigmoid(acts[:3*H], pre)
	tanh(acts[3*H:], pre[3*H:])
	for j := 0; j < H; j++ {
		// Two statements, matching Add(Mul(f,c), Mul(i,cand)) rounding.
		fc := acts[H+j] * c[j]
		ic := acts[j] * acts[3*H+j]
		cNext[j] = fc + ic
	}
	tanh(tc, cNext)
	for j, t := range tc {
		hNext[j] = acts[2*H+j] * t
	}
}

// AttendSoftmaxContext fuses the decoder's attention chain
//
//	scores = AttendDot(q, H); alpha = SoftmaxRow(scores)
//	ctx    = WeightedSumRows(alpha, H)
//
// into one forward pass and one tape record, returning both the attention
// weights (needed by the pointer mechanism) and the context vector.
func (g *Graph) AttendSoftmaxContext(q, H *Tensor) (alpha, ctx *Tensor) {
	if q.Cols != H.Cols || q.Rows != 1 {
		panic("nn: AttendSoftmaxContext shape mismatch")
	}
	m := H.Rows
	// sc.W holds the raw scores; sc.DW is backward's score-gradient scratch.
	sc := g.NewTensor(1, m)
	alpha = g.NewTensor(1, m)
	ctx = g.NewTensor(1, H.Cols)
	attendDotInto(q.W, H.W, m, sc.W)
	softmaxInto(sc.W, alpha.W)
	rowMatMulInto(alpha.W, H.W, ctx.W)
	g.push(tapeOp{kind: opAttendSoftmaxContext, a: q, b: H, out: ctx, aux: alpha, aux2: sc})
	return alpha, ctx
}
