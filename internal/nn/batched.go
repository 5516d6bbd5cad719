package nn

import "math"

// This file holds the fused kernels of the model's inner loop, one form per
// op: each fuses a chain of primitive ops (ops.go) into one forward pass and
// one tape record over B stacked rows, accumulating per row exactly the same
// floating-point expressions in the same order as the chain it replaces. A
// single row is a batch of one — AffineRow, LSTMCell.Step and
// AttendSoftmaxContext are one-call wrappers — and a one-row product's
// backward is the single-row serial chain (kernel.go). Across rows, the input
// gradient of a batched matrix product sums over four lane accumulators where
// the single-row backward uses one; the kernel parity tests bound that within
// ~1 ulp.
//
// Every kernel is row-local: its forward and the input gradients of its
// backward over rows [lo, hi) read and write only those rows, so a split step
// (Graph.ResetStep) runs them in two parts at one row cut; what a backward
// adds into a parameter is reduced separately (reduce.go). Either way, on a
// warm arena, nothing is allocated.

// nllEps keeps the pointer-mixture log finite when p is 0.
const nllEps = 1e-9

// BatchedAffine computes x·W + b for a B×in batch in one pass: it fuses
// Add(MatMul(x, w), b), the bias row broadcast over the batch. As for
// MatMul's b, w and b must be leaves when the graph records gradients.
func (g *Graph) BatchedAffine(x, w, b *Tensor) *Tensor {
	if x.Cols != w.Rows || b.Cols != w.Cols || b.Rows != 1 {
		panic("nn: BatchedAffine shape mismatch")
	}
	out := g.newOut(x.Rows, w.Cols)
	g.exec(&tapeOp{kind: opAffineBatch, a: x, b: w, c: b, out: out})
	return out
}

// AffineRow is BatchedAffine for one row x (1×in).
func (g *Graph) AffineRow(x, w, b *Tensor) *Tensor { return g.BatchedAffine(x, w, b) }

// forwardAffine is x·W + b over rows [lo, hi); without a bias, MatMul.
func forwardAffine(o *tapeOp, lo, hi int) {
	x, w, out := o.a, o.b, o.out
	n := w.Cols
	matMulRows(x.W, lo, hi, x.Cols, w.W, n, out.W, nil)
	if o.c == nil {
		return
	}
	for i := lo; i < hi; i++ {
		orow := out.W[i*n : (i+1)*n]
		for j, bv := range o.c.W {
			orow[j] += bv
		}
	}
}

// backProductRows accumulates the input gradient ad of out = a·w over rows
// [lo, hi): a one-row product's is gradXRow, any other's gradX by row pairs
// (gradXRows); rows where active is false (nil = all active) get none.
func backProductRows(ad []float64, rows, in int, w []float64, n int, dOut []float64, active []bool, lo, hi int) {
	if rows == 1 {
		if active == nil || active[0] {
			gradXRow(ad[:in], dOut[:n], w)
		}
		return
	}
	gradXRows(ad, in, w, n, dOut, active, lo, hi)
}

// countActive is the number of rows of a rows-long mask that are active (nil
// = all).
func countActive(rows int, active []bool) int {
	if active == nil {
		return rows
	}
	c := 0
	for _, on := range active[:rows] {
		if on {
			c++
		}
	}
	return c
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

// lstmBatchRows runs the activation and state-update stage of the batched
// LSTM step over rows [lo, hi), after pre has been filled with x·Wx (pre.W)
// and h·Wh (pre.DW): lstmCellRow on every active row. Inactive rows copy
// their state through.
func lstmBatchRows(cell *LSTMCell, h, c, pre, acts, tc, hNext, cNext *Tensor, active []bool, lo, hi int) {
	H := cell.Hidden
	n := 4 * H
	for bi := lo; bi < hi; bi++ {
		o, s := bi*n, bi*H
		if active != nil && !active[bi] {
			copy(hNext.W[s:s+H], h.W[s:s+H])
			copy(cNext.W[s:s+H], c.W[s:s+H])
			continue
		}
		lstmCellRow(cell, pre.W[o:o+n], pre.DW[o:o+n], c.W[s:s+H],
			acts.W[o:o+n], tc.W[s:s+H], hNext.W[s:s+H], cNext.W[s:s+H])
	}
}

// lstmStepBatch advances an LSTM cell one timestep for B stacked rows in one
// fused pass — both gate matmuls, the bias add, the four activations and the
// state update — with a single tape record. Per row it fuses the chain
//
//	gates = Add(Add(MatMul(x, Wx), MatMul(h, Wh)), B)
//	i,f,o = Sigmoid(slice(gates, k)); cand = Tanh(slice(gates, 3))
//	cNext = Add(Mul(f, c), Mul(i, cand)); hNext = Mul(o, Tanh(cNext))
//
// Rows where active is false carry their (h, c) state through unchanged —
// the padding scheme of the batched encoder, where sequences shorter than the
// batch maximum stop stepping — and contribute nothing to any gradient. A nil
// active means all rows step. The active slice is retained until
// Backward/Reset.
func (g *Graph) lstmStepBatch(cell *LSTMCell, x, h, c *Tensor, active []bool) (hNext, cNext *Tensor) {
	B := x.Rows
	H := cell.Hidden
	n := 4 * H
	if h.Rows != B || c.Rows != B || x.Cols != cell.Wx.Rows || h.Cols != H {
		panic("nn: StepBatch shape mismatch")
	}
	// pre.W accumulates x·Wx; pre.DW doubles as scratch for h·Wh during the
	// forward pass (this op's backward never reads pre).
	pre := g.newOut(B, n)
	// acts stashes the activated gates [i|f|o|cand] for backward; its DW is
	// backward's pre-activation-gradient scratch.
	acts := g.newOut(B, n)
	tc := g.newOut(B, H)
	hNext = g.newOut(B, H)
	cNext = g.newOut(B, H)
	g.exec(&tapeOp{kind: opLSTMStepBatch, cell: cell, a: x, b: h, c: c,
		out: hNext, out2: cNext, aux: acts, aux2: tc, pre: pre, mask: active})
	return hNext, cNext
}

// lstmStepRows is the forward LSTM step over rows [lo, hi): both products of
// each row, then its cell.
func lstmStepRows(o *tapeOp, lo, hi int) {
	cell, x, h, pre := o.cell, o.a, o.b, o.pre
	n := 4 * cell.Hidden
	matMulRows(x.W, lo, hi, x.Cols, cell.Wx.W, n, pre.W, o.mask)
	matMulRows(h.W, lo, hi, h.Cols, cell.Wh.W, n, pre.DW, o.mask)
	lstmBatchRows(cell, h, o.c, pre, o.aux, o.aux2, o.out, o.out2, o.mask, lo, hi)
}

// lstmBatchGateGrads computes the pre-activation gate gradients of rows
// [lo, hi) into acts.DW; inactive rows pass their state gradients straight
// through and leave a zero gradient row so the weight and bias passes see no
// contribution from them.
func lstmBatchGateGrads(o *tapeOp, lo, hi int) {
	cell := o.cell
	h, cPrev := o.b, o.c
	hNext, cNext := o.out, o.out2
	acts, tc := o.aux, o.aux2
	active := o.mask
	H := cell.Hidden
	n := 4 * H
	dG := acts.DW
	for bi := lo; bi < hi; bi++ {
		o4 := bi * n
		s := bi * H
		if active != nil && !active[bi] {
			for j := 0; j < n; j++ {
				dG[o4+j] = 0
			}
			for j := 0; j < H; j++ {
				h.DW[s+j] += hNext.DW[s+j]
				cPrev.DW[s+j] += cNext.DW[s+j]
			}
			continue
		}
		for j := 0; j < H; j++ {
			iv := acts.W[o4+j]
			fv := acts.W[o4+H+j]
			ov := acts.W[o4+2*H+j]
			cv := acts.W[o4+3*H+j]
			tcj := tc.W[s+j]
			dh := hNext.DW[s+j]
			dO := dh * tcj
			dtc := dh * ov
			cNext.DW[s+j] += dtc * (1 - tcj*tcj)
			dc := cNext.DW[s+j]
			dF := dc * cPrev.W[s+j]
			cPrev.DW[s+j] += dc * fv
			dI := dc * cv
			dCand := dc * iv
			dG[o4+j] = dI * iv * (1 - iv)
			dG[o4+H+j] = dF * fv * (1 - fv)
			dG[o4+2*H+j] = dO * ov * (1 - ov)
			dG[o4+3*H+j] = dCand * (1 - cv*cv)
		}
	}
}

// backLSTMRows is the row-local backward of the LSTM step over rows
// [lo, hi): the gate gradients, then the input gradients of h and x.
func backLSTMRows(o *tapeOp, lo, hi int) {
	cell, x, h := o.cell, o.a, o.b
	B, n := x.Rows, 4*cell.Hidden
	dG := o.aux.DW
	lstmBatchGateGrads(o, lo, hi)
	backProductRows(h.DW, B, h.Cols, cell.Wh.W, n, dG, o.mask, lo, hi)
	backProductRows(x.DW, B, x.Cols, cell.Wx.W, n, dG, o.mask, lo, hi)
}

// AttendSoftmaxContextBatch is the batched attention kernel: it fuses
//
//	scores = AttendDot(q, H); alpha = SoftmaxRow(scores)
//	ctx    = WeightedSumRows(alpha, H)
//
// for queries q (R×d) over a padded memory H ((M*S)×d, M blocks of S rows
// each), with lens[m] giving block m's valid row count — scores, softmax and
// the context sum all restrict to the valid prefix, so padding rows never
// receive probability mass. blocks[r] names the memory block row r attends
// (beam rows of one request share its block); nil means row r attends block
// r (R == M), the training layout, and the only one supported on
// gradient-recording graphs. Returns the attention weights alpha (R×S, zero
// beyond the block's length; the pointer loss reads them) and the context
// ctx (R×d). The lens slice is retained until Backward/Reset.
func (g *Graph) AttendSoftmaxContextBatch(q, H *Tensor, blocks, lens []int) (alpha, ctx *Tensor) {
	R, d := q.Rows, q.Cols
	M := len(lens)
	if H.Cols != d || M == 0 || H.Rows%M != 0 {
		panic("nn: AttendSoftmaxContextBatch shape mismatch")
	}
	if blocks == nil && R != M {
		panic("nn: AttendSoftmaxContextBatch needs blocks when R != len(lens)")
	}
	if g.NeedsGrad && blocks != nil {
		panic("nn: AttendSoftmaxContextBatch blocks are inference-only")
	}
	S := H.Rows / M
	// sc.W holds the raw scores; sc.DW is backward's score-gradient scratch.
	sc := g.newOut(R, S)
	alpha = g.newOut(R, S)
	ctx = g.newOut(R, d)
	g.exec(&tapeOp{kind: opAttendBatch, a: q, b: H, out: ctx, aux: alpha, aux2: sc, ints: lens, blocks: blocks})
	return alpha, ctx
}

// attendRows is the attention forward over query rows [lo, hi).
func attendRows(o *tapeOp, lo, hi int) {
	q, H, ctx, alpha, sc, blocks := o.a, o.b, o.out, o.aux, o.aux2, o.blocks
	d, S := q.Cols, alpha.Cols
	for r := lo; r < hi; r++ {
		m := r
		if blocks != nil {
			m = blocks[r]
		}
		L := o.ints[m]
		mem := H.W[m*S*d : (m*S+L)*d]
		attendDotInto(q.W[r*d:(r+1)*d], mem, L, sc.W[r*S:r*S+L])
		softmaxInto(sc.W[r*S:r*S+L], alpha.W[r*S:r*S+L])
		matvec(ctx.W[r*d:(r+1)*d], alpha.W[r*S:r*S+L], mem)
	}
}

// AttendSoftmaxContext is AttendSoftmaxContextBatch for one query row q (1×d)
// over an unpadded memory H.
func (g *Graph) AttendSoftmaxContext(q, H *Tensor) (alpha, ctx *Tensor) {
	return g.AttendSoftmaxContextBatch(q, H, nil, []int{H.Rows})
}

// backAttendRows is the attention backward over query rows [lo, hi). The
// record-time identity block layout means row r owns memory rows
// [r*S, r*S+lens[r]), so the rows' memory gradients are theirs too.
func backAttendRows(o *tapeOp, lo, hi int) {
	q, H := o.a, o.b
	ctx, alpha, sc := o.out, o.aux, o.aux2
	d := q.Cols
	S := alpha.Cols
	for r := lo; r < hi; r++ {
		L := o.ints[r]
		aW := alpha.W[r*S : r*S+L]
		aDW := alpha.DW[r*S : r*S+L]
		scDW := sc.DW[r*S : r*S+L]
		mem := H.W[r*S*d : (r*S+L)*d]
		memDW := H.DW[r*S*d : (r*S+L)*d]
		// WeightedSumRows backward (ctx = alpha·H) over the valid prefix.
		backRowMatMul(aW, aDW, mem, memDW, ctx.DW[r*d:(r+1)*d])
		// SoftmaxRow backward (alpha = softmax(scores)).
		backSoftmaxInto(aW, aDW, scDW)
		// AttendDot backward (scores = q·Hᵀ).
		backAttendDot(q.W[r*d:(r+1)*d], q.DW[r*d:(r+1)*d], mem, memDW, scDW)
	}
}

// SoftmaxRows applies SoftmaxRow to every row of a B×n tensor.
func (g *Graph) SoftmaxRows(a *Tensor) *Tensor {
	out := g.newOut(a.Rows, a.Cols)
	g.exec(&tapeOp{kind: opSoftmaxRows, a: a, out: out})
	return out
}

// softmaxRows writes the softmax of rows [lo, hi) of a into out.
func softmaxRows(a, out *Tensor, lo, hi int) {
	n := a.Cols
	for r := lo; r < hi; r++ {
		softmaxInto(a.W[r*n:(r+1)*n], out.W[r*n:(r+1)*n])
	}
}

func backSoftmaxRows(a, out *Tensor, lo, hi int) {
	n := a.Cols
	for r := lo; r < hi; r++ {
		backSoftmaxInto(out.W[r*n:(r+1)*n], out.DW[r*n:(r+1)*n], a.DW[r*n:(r+1)*n])
	}
}

// LookupRows stacks the embedding rows of ids into a len(ids)×dim batch. The
// ids slice is retained until Backward/Reset. The rows are copied when
// LookupRows is called, also on a split step: they depend on nothing the
// step computes. emb must be a leaf when the graph records gradients: its
// gradient is scattered after every op's row-local backward (reduce.go).
func (g *Graph) LookupRows(emb *Tensor, ids []int) *Tensor {
	o := &tapeOp{kind: opLookupRows, a: emb, ints: ids, out: g.NewTensor(len(ids), emb.Cols)}
	if g.rows > 0 {
		lookupRows(o, 0, len(ids))
	}
	g.exec(o)
	return o.out
}

func lookupRows(o *tapeOp, lo, hi int) {
	d := o.a.Cols
	for i := lo; i < hi; i++ {
		id := o.ints[i]
		copy(o.out.W[i*d:(i+1)*d], o.a.W[id*d:(id+1)*d])
	}
}

// ConcatCols concatenates two equal-height matrices along columns.
func (g *Graph) ConcatCols(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic("nn: ConcatCols row mismatch")
	}
	out := g.newOut(a.Rows, a.Cols+b.Cols)
	g.exec(&tapeOp{kind: opConcatCols2, a: a, b: b, out: out})
	return out
}

func concatCols(a, b, out *Tensor, lo, hi int) {
	an, bn := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		copy(out.W[i*(an+bn):], a.W[i*an:(i+1)*an])
		copy(out.W[i*(an+bn)+an:], b.W[i*bn:(i+1)*bn])
	}
}

func backConcatCols2(a, b, out *Tensor, lo, hi int) {
	an, bn := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		orow := out.DW[i*(an+bn) : (i+1)*(an+bn)]
		arow := a.DW[i*an : (i+1)*an]
		brow := b.DW[i*bn : (i+1)*bn]
		for j := range arow {
			arow[j] += orow[j]
		}
		for j := range brow {
			brow[j] += orow[an+j]
		}
	}
}

// PackMemoryBatch assembles the padded attention memory from per-position
// batch rows: rows[i] is the B×d encoder output at source position i, and
// the result is a (B*S)×d tensor (S = len(rows)) whose block b holds
// sequence b's memory — row b*S+i copies rows[i]'s row b for i < lens[b],
// and padding rows beyond a sequence's length stay zero. Block b is batch
// row b's. The rows and lens slices are retained until Backward/Reset, so a
// caller reusing a scratch slice must not overwrite it before then.
func (g *Graph) PackMemoryBatch(rows []*Tensor, lens []int) *Tensor {
	S := len(rows)
	if S == 0 {
		panic("nn: empty memory pack")
	}
	B, d := rows[0].Rows, rows[0].Cols
	out := g.newOut(B*S, d)
	g.exec(&tapeOp{kind: opPackMemory, list: rows, ints: lens, out: out})
	return out
}

// packMemory fills blocks [lo, hi) of the packed memory.
func packMemory(o *tapeOp, lo, hi int) {
	S, d := len(o.list), o.out.Cols
	for b := lo; b < hi; b++ {
		for i, r := range o.list[:min(o.ints[b], S)] {
			copy(o.out.W[(b*S+i)*d:(b*S+i+1)*d], r.W[b*d:(b+1)*d])
		}
	}
}

func backPackMemory(o *tapeOp, lo, hi int) {
	S, d := len(o.list), o.out.Cols
	for b := lo; b < hi; b++ {
		for i, r := range o.list[:min(o.ints[b], S)] {
			orow := o.out.DW[(b*S+i)*d : (b*S+i+1)*d]
			rrow := r.DW[b*d : (b+1)*d]
			for j, dv := range orow {
				rrow[j] += dv
			}
		}
	}
}

// NLLPointerMixBatch is the mixed pointer–generator loss of Section 4.1 over
// B rows. Row b mixes the vocabulary distribution pvocab (B×V), the source
// attention alpha (B×S) and the gate pgen (B×1):
//
//	p = gate·pvocab[idx] + (1−gate)·Σ_{i: srcMask_i} alpha_i
//
// With a context memory (beta non-nil) the copy half is itself a mixture of
// copying from the source and from the previous turn's program — attention
// beta (B×M) over ctxMasks — weighted by the context gate cgate (B×1):
//
//	p = gate·pvocab[idx] + (1−gate)·((1−cgate)·Σ srcMask·alpha + cgate·Σ ctxMask·beta)
//
// copyMasks[b] and ctxMasks[b] flag the positions holding row b's target
// token, and vocabIdx[b] is its vocabulary index (−1 when out of vocabulary,
// forcing a pure copy). ctxMasks is read only with beta. gradScale[b] scales row b's gradient — pass 1/B to
// average the minibatch gradient over examples, and 0 to mark a padded row
// (sequences shorter than the batch maximum), which is skipped entirely.
// nll[b] receives row b's raw −log p (0 for skipped rows) — on a split step
// when Forward runs; the caller weights those into the per-example means it
// reports. alpha and copyMasks may be nil
// for pure generation. All slice arguments are retained until
// Backward/Reset, so per-step calls need distinct backings.
func (g *Graph) NLLPointerMixBatch(pvocab, alpha, pgen *Tensor, copyMasks [][]bool, beta, cgate *Tensor, ctxMasks [][]bool, vocabIdx []int, gradScale []float64, nll []float64) {
	// pt stashes the mixed probability of each row for backward.
	pt := g.newOut(pvocab.Rows, 1)
	g.exec(&tapeOp{kind: opNLLPointerMixBatch, a: pvocab, b: alpha, c: pgen, out: pt,
		aux: beta, aux2: cgate, masks: copyMasks, ctxMasks: ctxMasks, ints: vocabIdx, fvals: gradScale, nll: nll})
}

// nllRows is the pointer loss's forward over rows [lo, hi).
func nllRows(o *tapeOp, lo, hi int) {
	pvocab, alpha, pgen, pt := o.a, o.b, o.c, o.out
	beta, cgate := o.aux, o.aux2
	for b := lo; b < hi; b++ {
		o.nll[b] = 0
		if o.fvals[b] == 0 {
			continue
		}
		pv, ps, pc := mixTerms(pvocab, alpha, beta, o.masks, o.ctxMasks, o.ints[b], b)
		gate := pgen.W[b]
		var p float64
		if beta == nil {
			p = gate*pv + (1-gate)*ps
		} else {
			cg := cgate.W[b]
			p = gate*pv + (1-gate)*((1-cg)*ps+cg*pc)
		}
		pt.W[b] = p
		o.nll[b] = -math.Log(p + nllEps)
	}
}

// mixTerms returns row b's three terms of the pointer mixture: the target's
// vocabulary probability, and the attention mass on the source and context
// positions that hold it.
func mixTerms(pvocab, alpha, beta *Tensor, srcMasks, ctxMasks [][]bool, idx, b int) (pv, ps, pc float64) {
	if idx >= 0 {
		pv = pvocab.W[b*pvocab.Cols+idx]
	}
	if srcMasks != nil {
		ps = maskedSum(alpha.Row(b), srcMasks[b])
	}
	if beta != nil && ctxMasks != nil {
		pc = maskedSum(beta.Row(b), ctxMasks[b])
	}
	return pv, ps, pc
}

func maskedSum(w []float64, mask []bool) float64 {
	var s float64
	for i, m := range mask {
		if m {
			s += w[i]
		}
	}
	return s
}

func addMasked(dw []float64, mask []bool, v float64) {
	for i, m := range mask {
		if m {
			dw[i] += v
		}
	}
}

func backNLLPointerMixBatch(o *tapeOp, lo, hi int) {
	pvocab, alpha, pgen, pt := o.a, o.b, o.c, o.out
	beta, cgate := o.aux, o.aux2
	for b := lo; b < hi; b++ {
		w := o.fvals[b]
		if w == 0 {
			continue
		}
		idx := o.ints[b]
		pv, ps, pc := mixTerms(pvocab, alpha, beta, o.masks, o.ctxMasks, idx, b)
		gate := pgen.W[b]
		dp := -w / (pt.W[b] + nllEps)
		if idx >= 0 {
			pvocab.DW[b*pvocab.Cols+idx] += dp * gate
		}
		if beta == nil {
			if o.masks != nil {
				addMasked(alpha.DW[b*alpha.Cols:], o.masks[b], dp*(1-gate))
			}
			pgen.DW[b] += dp * (pv - ps)
			continue
		}
		cg := cgate.W[b]
		if o.masks != nil {
			addMasked(alpha.DW[b*alpha.Cols:], o.masks[b], dp*(1-gate)*(1-cg))
		}
		if o.ctxMasks != nil {
			addMasked(beta.DW[b*beta.Cols:], o.ctxMasks[b], dp*(1-gate)*cg)
		}
		pgen.DW[b] += dp * (pv - ((1-cg)*ps + cg*pc))
		cgate.DW[b] += dp * (1 - gate) * (pc - ps)
	}
}
