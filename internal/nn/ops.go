package nn

import (
	"math"
	"math/rand"
)

// This file holds the primitive ops. The model calls Tanh, Sigmoid and
// Dropout; MatMul, Add, Mul, SoftmaxRow, AttendDot, WeightedSumRows and
// sliceRow are the unfused chains the fused kernels of batched.go are
// verified against.

// MatMul returns a·b.
func (g *Graph) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("nn: matmul shape mismatch")
	}
	out := g.newRows(a.Rows, b.Cols)
	g.matMul(a.W, a.Rows, a.Cols, b.W, b.Cols, out)
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
	matvec(out.W, alpha.W, H.W)
	g.push(tapeOp{kind: opWeightedSumRows, a: alpha, b: H, out: out})
	return out
}

// sliceRow views columns [from, to) of a row vector as a new tensor sharing
// gradients.
func (g *Graph) sliceRow(a *Tensor, from, to int) *Tensor {
	out := g.NewTensor(1, to-from)
	copy(out.W, a.W[from:to])
	g.push(tapeOp{kind: opSliceRow, a: a, idx: from, out: out})
	return out
}

func sameShape(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: shape mismatch")
	}
}
