// Package nn is a pure-Go neural-network substrate: a tape-based reverse-
// mode autograd over dense matrices, LSTM cells, attention primitives, and
// the Adam optimizer. It is the foundation of the scaled-down MQAN semantic
// parser (Section 4 of the paper) in package model.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix with a gradient buffer. Row vectors are
// 1×n tensors.
type Tensor struct {
	W    []float64
	DW   []float64
	Rows int
	Cols int
}

// NewTensor allocates a zero tensor.
func NewTensor(rows, cols int) *Tensor {
	return &Tensor{
		W:    make([]float64, rows*cols),
		DW:   make([]float64, rows*cols),
		Rows: rows,
		Cols: cols,
	}
}

// NewRandom allocates a tensor with Xavier-uniform initialization.
func NewRandom(rows, cols int, rng *rand.Rand) *Tensor {
	t := NewTensor(rows, cols)
	scale := math.Sqrt(6.0 / float64(rows+cols))
	for i := range t.W {
		t.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.DW {
		t.DW[i] = 0
	}
}

// RowPrefix returns a view of t's first rows rows: a rows×Cols tensor
// sharing t's W and DW, so what it is trained with lands in t.
func (t *Tensor) RowPrefix(rows int) *Tensor {
	n := rows * t.Cols
	return &Tensor{W: t.W[:n:n], DW: t.DW[:n:n], Rows: rows, Cols: t.Cols}
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.W) }

// Row returns row r of the value buffer as a shared slice view into W (no
// copy, no gradient link); used for read-only inspection.
func (t *Tensor) Row(r int) []float64 { return t.W[r*t.Cols : (r+1)*t.Cols] }

func (t *Tensor) String() string { return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols) }
