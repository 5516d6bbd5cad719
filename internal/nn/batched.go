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
// On a gradient-recording graph the row-wise kernels over two or more rows
// split their rows (and the backward product its weight-gradient rows) into
// two parts, the upper one offered to a helper core (team.go); everywhere
// else they run on the calling goroutine. Either way, on a warm arena,
// nothing is allocated.

// nllEps keeps the pointer-mixture log finite when p is 0.
const nllEps = 1e-9

// BatchedAffine computes x·W + b for a B×in batch in one pass: it fuses
// Add(MatMul(x, w), b), the bias row broadcast over the batch.
func (g *Graph) BatchedAffine(x, w, b *Tensor) *Tensor {
	if x.Cols != w.Rows || b.Cols != w.Cols || b.Rows != 1 {
		panic("nn: BatchedAffine shape mismatch")
	}
	out := g.newRows(x.Rows, w.Cols)
	g.matMul(x.W, x.Rows, x.Cols, w.W, w.Cols, out)
	n := w.Cols
	for i := 0; i < x.Rows; i++ {
		orow := out.W[i*n : (i+1)*n]
		for j, bv := range b.W {
			orow[j] += bv
		}
	}
	g.push(tapeOp{kind: opAffineBatch, a: x, b: w, c: b, out: out})
	return out
}

// AffineRow is BatchedAffine for one row x (1×in).
func (g *Graph) AffineRow(x, w, b *Tensor) *Tensor { return g.BatchedAffine(x, w, b) }

func (g *Graph) backAffineBatch(x, w, b, out *Tensor) {
	n := w.Cols
	// Bias: broadcast backward, batch rows in ascending order.
	for i := 0; i < x.Rows; i++ {
		odrow := out.DW[i*n : (i+1)*n]
		for j, d := range odrow {
			b.DW[j] += d
		}
	}
	g.backMatMul(x.W, x.DW, x.Rows, x.Cols, w.W, w.DW, n, out.DW, nil)
}

// matMul is matMulRows over every row of a into out (made by newRows),
// split by rows.
func (g *Graph) matMul(a []float64, rows, cols int, w []float64, p int, out *Tensor) {
	if !g.splits(rows) {
		matMulRows(a, 0, rows, cols, w, p, out.W, nil)
		return
	}
	g.j = job{run: matMulJob, a: a, in: cols, w: w, n: p, out: out}
	g.j.cutActive(rows, nil, (rows+1)/2)
	g.fork(&g.j)
}

func matMulJob(j *job, from, to int) {
	lo, hi := j.rcut[from], j.rcut[to]
	zeroRows(j.out, lo, hi)
	matMulRows(j.a, lo, hi, j.in, j.w, j.n, j.out.W, nil)
}

// backMatMul is backMatMulRows, split: the input gradient by active-row
// pairs, the weight gradient by its rows, cut so the two parts hold about
// the same number of multiply-adds (a lone row's gradX costs a pair's).
func (g *Graph) backMatMul(a, ad []float64, rows, in int, w, wd []float64, n int, dOut []float64, active []bool) {
	if !g.splits(rows) {
		backMatMulRows(a, ad, rows, in, w, wd, n, dOut, active)
		return
	}
	c := countActive(rows, active)
	if c == 0 {
		return
	}
	g.j = job{run: backMatMulJob, a: a, ad: ad, in: in, w: w, wd: wd, n: n, dOut: dOut, active: active}
	lo := 2 * ((c + 1) / 4) // active rows of the lower part: whole pairs
	g.j.cutActive(rows, active, lo)
	xlo, xhi := lo, 2*((c-lo+1)/2)
	g.j.kcut = [3]int{0, min(in, in*(c+xhi-xlo)/(2*c)), in}
	g.fork(&g.j)
}

func backMatMulJob(j *job, from, to int) {
	backMatMulPart(j.a, j.ad, j.rcut[2], j.in, j.w, j.wd, j.n, j.dOut, j.active,
		j.rcut[from], j.rcut[to], j.kcut[from], j.kcut[to])
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

// cutActive cuts rows [0, rows) after the lo-th active row (nil = all rows
// active).
func (j *job) cutActive(rows int, active []bool, lo int) {
	mid := lo
	if active != nil {
		mid = 0
		for seen := 0; seen < lo; mid++ {
			if active[mid] {
				seen++
			}
		}
	}
	j.rcut = [3]int{0, mid, rows}
}

// cutWeighted cuts rows [0, len(weight)) where the lower part's weight
// first reaches half the total.
func (j *job) cutWeighted(weight []int) {
	total := 0
	for _, w := range weight {
		total += w
	}
	mid, acc := 0, 0
	for mid < len(weight) && 2*acc < total {
		acc += weight[mid]
		mid++
	}
	j.rcut = [3]int{0, mid, len(weight)}
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
	pre := g.newRows(B, n)
	// acts stashes the activated gates [i|f|o|cand] for backward; its DW is
	// backward's pre-activation-gradient scratch.
	acts := g.newRows(B, n)
	tc := g.newRows(B, H)
	hNext = g.newRows(B, H)
	cNext = g.newRows(B, H)
	op := tapeOp{kind: opLSTMStepBatch, cell: cell, a: x, b: h, c: c,
		out: hNext, out2: cNext, aux: acts, aux2: tc, mask: active}
	if g.splits(B) {
		g.j = job{run: lstmStepJob, o: g.record(op), pre: pre}
		g.j.cutActive(B, active, (countActive(B, active)+1)/2)
		g.fork(&g.j)
		return hNext, cNext
	}
	lstmStepRows(&op, pre, 0, B)
	g.push(op)
	return hNext, cNext
}

func lstmStepJob(j *job, from, to int) {
	o, lo, hi := j.o, j.rcut[from], j.rcut[to]
	for _, t := range [...]*Tensor{j.pre, o.aux, o.aux2, o.out, o.out2} {
		zeroRows(t, lo, hi)
	}
	lstmStepRows(o, j.pre, lo, hi)
}

// lstmStepRows is the forward LSTM step over rows [lo, hi): both products of
// each row, then its cell.
func lstmStepRows(o *tapeOp, pre *Tensor, lo, hi int) {
	cell, x, h := o.cell, o.a, o.b
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

func gateGradsJob(j *job, from, to int) { lstmBatchGateGrads(j.o, j.rcut[from], j.rcut[to]) }

func (g *Graph) backLSTMStepBatch(o *tapeOp) {
	cell := o.cell
	x, h := o.a, o.b
	B := x.Rows
	n := 4 * cell.Hidden
	dG := o.aux.DW
	if g.splits(B) {
		g.j = job{run: gateGradsJob, o: o}
		g.j.cutActive(B, o.mask, (countActive(B, o.mask)+1)/2)
		g.fork(&g.j)
	} else {
		lstmBatchGateGrads(o, 0, B)
	}
	for bi := 0; bi < B; bi++ {
		o4 := bi * n
		for j := 0; j < n; j++ {
			cell.B.DW[j] += dG[o4+j]
		}
	}
	g.backMatMul(h.W, h.DW, B, h.Cols, cell.Wh.W, cell.Wh.DW, n, dG, o.mask)
	g.backMatMul(x.W, x.DW, B, x.Cols, cell.Wx.W, cell.Wx.DW, n, dG, o.mask)
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
	sc := g.newRows(R, S)
	alpha = g.newRows(R, S)
	ctx = g.newRows(R, d)
	op := tapeOp{kind: opAttendBatch, a: q, b: H, out: ctx, aux: alpha, aux2: sc, ints: lens}
	if g.splits(R) {
		g.j = job{run: attendJob, o: g.record(op)}
		g.j.cutWeighted(lens)
		g.fork(&g.j)
		return alpha, ctx
	}
	attendRows(&op, blocks, 0, R)
	g.push(op)
	return alpha, ctx
}

func attendJob(j *job, from, to int) {
	o, lo, hi := j.o, j.rcut[from], j.rcut[to]
	for _, t := range [...]*Tensor{o.aux2, o.aux, o.out} {
		zeroRows(t, lo, hi)
	}
	attendRows(o, nil, lo, hi)
}

// attendRows is the attention forward over query rows [lo, hi).
func attendRows(o *tapeOp, blocks []int, lo, hi int) {
	q, H, ctx, alpha, sc := o.a, o.b, o.out, o.aux, o.aux2
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

// backAttendBatch runs the attention backward row by row, split by rows. The
// record-time identity block layout means row r owns memory rows
// [r*S, r*S+lens[r]), so the parts write disjoint memory gradients.
func (g *Graph) backAttendBatch(o *tapeOp) {
	if !g.splits(len(o.ints)) {
		backAttendRows(o, 0, len(o.ints))
		return
	}
	g.j = job{run: backAttendJob, o: o}
	g.j.cutWeighted(o.ints)
	g.fork(&g.j)
}

func backAttendJob(j *job, from, to int) { backAttendRows(j.o, j.rcut[from], j.rcut[to]) }

// backAttendRows is the attention backward over query rows [lo, hi).
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
	out := g.newRows(a.Rows, a.Cols)
	op := tapeOp{kind: opSoftmaxRows, a: a, out: out}
	if g.splits(a.Rows) {
		g.j = job{run: softmaxRowsJob, o: g.record(op)}
		g.j.cutActive(a.Rows, nil, (a.Rows+1)/2)
		g.fork(&g.j)
		return out
	}
	softmaxRows(a, out, 0, a.Rows)
	g.push(op)
	return out
}

func softmaxRowsJob(j *job, from, to int) {
	lo, hi := j.rcut[from], j.rcut[to]
	zeroRows(j.o.out, lo, hi)
	softmaxRows(j.o.a, j.o.out, lo, hi)
}

// softmaxRows writes the softmax of rows [lo, hi) of a into out.
func softmaxRows(a, out *Tensor, lo, hi int) {
	n := a.Cols
	for r := lo; r < hi; r++ {
		softmaxInto(a.W[r*n:(r+1)*n], out.W[r*n:(r+1)*n])
	}
}

func backSoftmaxRows(a, out *Tensor) {
	n := a.Cols
	for r := 0; r < a.Rows; r++ {
		backSoftmaxInto(out.W[r*n:(r+1)*n], out.DW[r*n:(r+1)*n], a.DW[r*n:(r+1)*n])
	}
}

// LookupRows stacks the embedding rows of ids into a len(ids)×dim batch. The
// ids slice is retained until Backward/Reset.
func (g *Graph) LookupRows(emb *Tensor, ids []int) *Tensor {
	d := emb.Cols
	out := g.NewTensor(len(ids), d)
	for i, id := range ids {
		copy(out.W[i*d:(i+1)*d], emb.W[id*d:(id+1)*d])
	}
	g.push(tapeOp{kind: opLookupRows, a: emb, ints: ids, out: out})
	return out
}

// ConcatCols concatenates two equal-height matrices along columns.
func (g *Graph) ConcatCols(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic("nn: ConcatCols row mismatch")
	}
	an, bn := a.Cols, b.Cols
	out := g.NewTensor(a.Rows, an+bn)
	for i := 0; i < a.Rows; i++ {
		copy(out.W[i*(an+bn):], a.W[i*an:(i+1)*an])
		copy(out.W[i*(an+bn)+an:], b.W[i*bn:(i+1)*bn])
	}
	g.push(tapeOp{kind: opConcatCols2, a: a, b: b, out: out})
	return out
}

func backConcatCols2(a, b, out *Tensor) {
	an, bn := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
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
// and padding rows beyond a sequence's length stay zero. The rows and lens
// slices are retained until Backward/Reset, so a caller reusing a scratch
// slice must not overwrite it before then.
func (g *Graph) PackMemoryBatch(rows []*Tensor, lens []int) *Tensor {
	S := len(rows)
	if S == 0 {
		panic("nn: empty memory pack")
	}
	B, d := rows[0].Rows, rows[0].Cols
	out := g.NewTensor(B*S, d)
	for i, r := range rows {
		for b := 0; b < B; b++ {
			if i < lens[b] {
				copy(out.W[(b*S+i)*d:(b*S+i+1)*d], r.W[b*d:(b+1)*d])
			}
		}
	}
	g.push(tapeOp{kind: opPackMemory, list: rows, ints: lens, out: out})
	return out
}

func backPackMemory(o *tapeOp) {
	S := len(o.list)
	lens := o.ints
	B, d := o.list[0].Rows, o.list[0].Cols
	for i, r := range o.list {
		for b := 0; b < B; b++ {
			if i >= lens[b] {
				continue
			}
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
// nll[b] receives row b's raw −log p (0 for skipped rows); the caller weights
// those into the per-example means it reports. alpha and copyMasks may be nil
// for pure generation. All slice arguments are retained until
// Backward/Reset, so per-step calls need distinct backings.
func (g *Graph) NLLPointerMixBatch(pvocab, alpha, pgen *Tensor, copyMasks [][]bool, beta, cgate *Tensor, ctxMasks [][]bool, vocabIdx []int, gradScale []float64, nll []float64) {
	B := pvocab.Rows
	// pt stashes the mixed probability of each row for backward.
	pt := g.NewTensor(B, 1)
	for b := 0; b < B; b++ {
		nll[b] = 0
		if gradScale[b] == 0 {
			continue
		}
		pv, ps, pc := mixTerms(pvocab, alpha, beta, copyMasks, ctxMasks, vocabIdx[b], b)
		gate := pgen.W[b]
		var p float64
		if beta == nil {
			p = gate*pv + (1-gate)*ps
		} else {
			cg := cgate.W[b]
			p = gate*pv + (1-gate)*((1-cg)*ps+cg*pc)
		}
		pt.W[b] = p
		nll[b] = -math.Log(p + nllEps)
	}
	g.push(tapeOp{kind: opNLLPointerMixBatch, a: pvocab, b: alpha, c: pgen, out: pt,
		aux: beta, aux2: cgate, masks: copyMasks, ctxMasks: ctxMasks, ints: vocabIdx, fvals: gradScale})
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

func backNLLPointerMixBatch(o *tapeOp) {
	pvocab, alpha, pgen, pt := o.a, o.b, o.c, o.out
	beta, cgate := o.aux, o.aux2
	for b, w := range o.fvals {
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
