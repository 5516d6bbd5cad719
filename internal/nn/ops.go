package nn

import (
	"math"
	"math/rand"
)

// This file holds the primitive ops. The model calls Tanh, Sigmoid and
// Dropout; MatMul, Add, Mul, SoftmaxRow, AttendDot, WeightedSumRows and
// sliceRow are the unfused chains the fused kernels of batched.go are
// verified against.

// MatMul returns a·b. When the graph records gradients, b must be a leaf —
// a parameter or a tensor no op on this graph produced: its gradient is
// summed after every op's row-local backward has run (reduce.go), too late
// for an op that produced it.
func (g *Graph) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("nn: matmul shape mismatch")
	}
	out := g.newOut(a.Rows, b.Cols)
	g.exec(&tapeOp{kind: opMatMul, a: a, b: b, out: out})
	return out
}

// Add returns a+b (same shape).
func (g *Graph) Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := g.newOut(a.Rows, a.Cols)
	g.exec(&tapeOp{kind: opAdd, a: a, b: b, out: out})
	return out
}

// Mul returns the elementwise product.
func (g *Graph) Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := g.newOut(a.Rows, a.Cols)
	g.exec(&tapeOp{kind: opMul, a: a, b: b, out: out})
	return out
}

// Tanh applies tanh elementwise.
func (g *Graph) Tanh(a *Tensor) *Tensor {
	out := g.newOut(a.Rows, a.Cols)
	g.exec(&tapeOp{kind: opTanh, a: a, out: out})
	return out
}

// Sigmoid applies the logistic function elementwise.
func (g *Graph) Sigmoid(a *Tensor) *Tensor {
	out := g.newOut(a.Rows, a.Cols)
	g.exec(&tapeOp{kind: opSigmoid, a: a, out: out})
	return out
}

// Dropout zeroes elements with probability rate (training only), scaling
// the survivors by 1/(1-rate). The mask is drawn when Dropout is called, one
// draw per element in order, also on a split step, whose Forward applies it.
func (g *Graph) Dropout(a *Tensor, rate float64, rng *rand.Rand) *Tensor {
	if rate <= 0 || !g.NeedsGrad {
		return a
	}
	out := g.newOut(a.Rows, a.Cols)
	maskT := g.newOut(a.Rows, a.Cols)
	mask := maskT.W
	scale := 1 / (1 - rate)
	for i := range mask {
		mask[i] = 0
		if rng.Float64() >= rate {
			mask[i] = scale
		}
	}
	g.exec(&tapeOp{kind: opDropout, a: a, aux: maskT, out: out})
	return out
}

// SoftmaxRow computes softmax over a 1×n tensor.
func (g *Graph) SoftmaxRow(a *Tensor) *Tensor {
	out := g.newOut(1, a.Cols)
	g.exec(&tapeOp{kind: opSoftmaxRow, a: a, out: out})
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
	out := g.newOut(1, H.Rows)
	g.exec(&tapeOp{kind: opAttendDot, a: q, b: H, out: out})
	return out
}

// WeightedSumRows computes α·H for weights 1×m and memory m×h, returning a
// 1×h context vector.
func (g *Graph) WeightedSumRows(alpha, H *Tensor) *Tensor {
	if alpha.Cols != H.Rows {
		panic("nn: WeightedSumRows shape mismatch")
	}
	out := g.newOut(1, H.Cols)
	g.exec(&tapeOp{kind: opWeightedSumRows, a: alpha, b: H, out: out})
	return out
}

// sliceRow views columns [from, to) of a row vector as a new tensor sharing
// gradients.
func (g *Graph) sliceRow(a *Tensor, from, to int) *Tensor {
	out := g.newOut(1, to-from)
	g.exec(&tapeOp{kind: opSliceRow, a: a, idx: from, out: out})
	return out
}

func sameShape(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: shape mismatch")
	}
}

// forwardElementwise is the forward of the elementwise ops over rows
// [lo, hi).
func forwardElementwise(o *tapeOp, lo, hi int) {
	c := o.out.Cols
	out, a := o.out.W[lo*c:hi*c], o.a.W[lo*c:hi*c]
	switch o.kind {
	case opAdd:
		b := o.b.W[lo*c : hi*c]
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case opMul:
		b := o.b.W[lo*c : hi*c]
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case opTanh:
		tanh(out, a)
	case opSigmoid:
		sigmoid(out, a)
	case opDropout:
		mask := o.aux.W[lo*c : hi*c]
		for i := range out {
			out[i] = a[i] * mask[i]
		}
	}
}

// backElementwise is the backward of the elementwise ops over rows [lo, hi).
func backElementwise(o *tapeOp, lo, hi int) {
	c := o.out.Cols
	od, ow := o.out.DW[lo*c:hi*c], o.out.W[lo*c:hi*c]
	ad := o.a.DW[lo*c : hi*c]
	switch o.kind {
	case opAdd:
		bd := o.b.DW[lo*c : hi*c]
		for i, d := range od {
			ad[i] += d
			bd[i] += d
		}
	case opMul:
		aw, bw, bd := o.a.W[lo*c:hi*c], o.b.W[lo*c:hi*c], o.b.DW[lo*c:hi*c]
		for i, d := range od {
			ad[i] += d * bw[i]
			bd[i] += d * aw[i]
		}
	case opTanh:
		for i, d := range od {
			ad[i] += d * (1 - ow[i]*ow[i])
		}
	case opSigmoid:
		for i, d := range od {
			ad[i] += d * ow[i] * (1 - ow[i])
		}
	case opDropout:
		mask := o.aux.W[lo*c : hi*c]
		for i, d := range od {
			ad[i] += d * mask[i]
		}
	}
}
