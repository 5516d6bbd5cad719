package nn

import (
	"math"
	"math/rand"
)

// MatMul returns a·b.
func (g *Graph) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("nn: matmul shape mismatch")
	}
	out := g.NewTensor(a.Rows, b.Cols)
	matMulRows(a.W, a.Rows, a.Cols, b.W, b.Cols, out.W, nil)
	g.push(tapeOp{kind: opMatMul, a: a, b: b, out: out})
	return out
}

// Add returns a+b (same shape).
func (g *Graph) Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := g.NewTensor(a.Rows, a.Cols)
	for i := range out.W {
		out.W[i] = a.W[i] + b.W[i]
	}
	g.push(tapeOp{kind: opAdd, a: a, b: b, out: out})
	return out
}

// Mul returns the elementwise product.
func (g *Graph) Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := g.NewTensor(a.Rows, a.Cols)
	for i := range out.W {
		out.W[i] = a.W[i] * b.W[i]
	}
	g.push(tapeOp{kind: opMul, a: a, b: b, out: out})
	return out
}

// Tanh applies tanh elementwise.
func (g *Graph) Tanh(a *Tensor) *Tensor {
	out := g.NewTensor(a.Rows, a.Cols)
	tanh(out.W, a.W)
	g.push(tapeOp{kind: opTanh, a: a, out: out})
	return out
}

// Sigmoid applies the logistic function elementwise.
func (g *Graph) Sigmoid(a *Tensor) *Tensor {
	out := g.NewTensor(a.Rows, a.Cols)
	sigmoid(out.W, a.W)
	g.push(tapeOp{kind: opSigmoid, a: a, out: out})
	return out
}

// ConcatRow concatenates row vectors (all 1×n_i) into one row vector. The
// two-part case (every model call site) is recorded without retaining the
// argument slice, so the variadic slice stays on the caller's stack.
func (g *Graph) ConcatRow(parts ...*Tensor) *Tensor {
	total := 0
	for _, p := range parts {
		if p.Rows != 1 {
			panic("nn: ConcatRow requires row vectors")
		}
		total += p.Cols
	}
	out := g.NewTensor(1, total)
	off := 0
	for _, p := range parts {
		copy(out.W[off:], p.W)
		off += p.Cols
	}
	if len(parts) == 2 {
		g.push(tapeOp{kind: opConcatRow2, a: parts[0], b: parts[1], out: out})
	} else {
		g.push(tapeOp{kind: opConcatRowN, list: append([]*Tensor(nil), parts...), out: out})
	}
	return out
}

// LookupRow selects row idx of an embedding matrix as a 1×Cols tensor.
func (g *Graph) LookupRow(emb *Tensor, idx int) *Tensor {
	out := g.NewTensor(1, emb.Cols)
	copy(out.W, emb.W[idx*emb.Cols:(idx+1)*emb.Cols])
	g.push(tapeOp{kind: opLookupRow, a: emb, idx: idx, out: out})
	return out
}

// Dropout zeroes elements with probability rate (training only), scaling
// the survivors by 1/(1-rate).
func (g *Graph) Dropout(a *Tensor, rate float64, rng *rand.Rand) *Tensor {
	if rate <= 0 || !g.NeedsGrad {
		return a
	}
	out := g.NewTensor(a.Rows, a.Cols)
	maskT := g.NewTensor(a.Rows, a.Cols)
	mask := maskT.W
	scale := 1 / (1 - rate)
	for i := range a.W {
		if rng.Float64() >= rate {
			mask[i] = scale
		}
		out.W[i] = a.W[i] * mask[i]
	}
	g.push(tapeOp{kind: opDropout, a: a, aux: maskT, out: out})
	return out
}

// RowsToMatrix stacks 1×n rows into an m×n matrix that shares gradients with
// the rows. The rows slice is retained until Backward/Reset; callers reusing
// a scratch slice must not overwrite it before then.
func (g *Graph) RowsToMatrix(rows []*Tensor) *Tensor {
	if len(rows) == 0 {
		panic("nn: empty row stack")
	}
	n := rows[0].Cols
	out := g.NewTensor(len(rows), n)
	for i, r := range rows {
		copy(out.W[i*n:], r.W)
	}
	g.push(tapeOp{kind: opRowsToMatrix, list: rows, out: out})
	return out
}

// SoftmaxRow computes softmax over a 1×n tensor.
func (g *Graph) SoftmaxRow(a *Tensor) *Tensor {
	out := g.NewTensor(1, a.Cols)
	softmaxInto(a.W, out.W)
	g.push(tapeOp{kind: opSoftmaxRow, a: a, out: out})
	return out
}

func softmaxInto(src, dst []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	expShift(dst, src, maxV)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// backSoftmaxInto accumulates into dx the gradient of y = softmax(x), given
// y and its gradient dy.
func backSoftmaxInto(y, dy, dx []float64) {
	s := dot(y, dy)
	for i := range dx {
		dx[i] += y[i] * (dy[i] - s)
	}
}

// AttendDot computes scores = q · Hᵀ for a query 1×h and memory m×h,
// returning a 1×m row.
func (g *Graph) AttendDot(q, H *Tensor) *Tensor {
	if q.Cols != H.Cols || q.Rows != 1 {
		panic("nn: AttendDot shape mismatch")
	}
	out := g.NewTensor(1, H.Rows)
	attendDotInto(q.W, H.W, H.Rows, out.W)
	g.push(tapeOp{kind: opAttendDot, a: q, b: H, out: out})
	return out
}

// WeightedSumRows computes α·H for weights 1×m and memory m×h, returning a
// 1×h context vector.
func (g *Graph) WeightedSumRows(alpha, H *Tensor) *Tensor {
	if alpha.Cols != H.Rows {
		panic("nn: WeightedSumRows shape mismatch")
	}
	out := g.NewTensor(1, H.Cols)
	rowMatMulInto(alpha.W, H.W, out.W)
	g.push(tapeOp{kind: opWeightedSumRows, a: alpha, b: H, out: out})
	return out
}

// NLLPointerMix computes the mixed pointer–generator loss of Section 4.1:
//
//	p(tok) = g·P_vocab(tok) + (1−g)·Σ_{i: src_i = tok} α_i
//
// pvocab is the 1×V vocabulary distribution, alpha the 1×S attention over
// the source, pgen a 1×1 gate, copyMask[i] true where source position i
// holds the target token, and vocabIdx the target's vocabulary index (−1
// when out of vocabulary, forcing a pure copy). It returns −log p and wires
// gradients into pvocab, alpha and pgen. The copyMask slice is retained
// until Backward/Reset; per-token masks must be distinct buffers within one
// step.
func (g *Graph) NLLPointerMix(pvocab, alpha, pgen *Tensor, copyMask []bool, vocabIdx int) float64 {
	gate := pgen.W[0]
	var pv, pc float64
	if vocabIdx >= 0 {
		pv = pvocab.W[vocabIdx]
	}
	for i, m := range copyMask {
		if m {
			pc += alpha.W[i]
		}
	}
	p := gate*pv + (1-gate)*pc
	const eps = 1e-9
	loss := -math.Log(p + eps)
	g.push(tapeOp{kind: opNLLPointerMix, a: pvocab, b: alpha, c: pgen, mask: copyMask, idx: vocabIdx, fval: p})
	return loss
}

// NLLPointerMixCtx is the contextual twin of NLLPointerMix: the copy half of
// the mixture is itself a mixture of copying from the source attention
// (alpha over srcMask) and from the previous-turn program attention (beta
// over ctxMask), weighted by the context gate pctx:
//
//	p = gate·pvocab[idx] + (1−gate)·((1−pctx)·Σ srcMask·alpha + pctx·Σ ctxMask·beta)
//
// The masks slice header pair is retained on the tape until Backward/Reset,
// so callers must give each call distinct backings (the model slices them out
// of one growing buffer per step, as with NLLPointerMix).
func (g *Graph) NLLPointerMixCtx(pvocab, alpha, beta, pgen, pctx *Tensor, srcMask, ctxMask []bool, vocabIdx int) float64 {
	gate, cg := pgen.W[0], pctx.W[0]
	var pv, ps, pc float64
	if vocabIdx >= 0 {
		pv = pvocab.W[vocabIdx]
	}
	for i, m := range srcMask {
		if m {
			ps += alpha.W[i]
		}
	}
	for i, m := range ctxMask {
		if m {
			pc += beta.W[i]
		}
	}
	p := gate*pv + (1-gate)*((1-cg)*ps+cg*pc)
	const eps = 1e-9
	loss := -math.Log(p + eps)
	g.push(tapeOp{
		kind: opNLLPointerMixCtx, a: pvocab, b: alpha, c: pgen,
		aux: beta, aux2: pctx, masks: [][]bool{srcMask, ctxMask},
		idx: vocabIdx, fval: p,
	})
	return loss
}

func sameShape(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: shape mismatch")
	}
}
