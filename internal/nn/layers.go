package nn

import "math/rand"

// Linear is a fully connected layer y = x·W + b, applied with
// Graph.BatchedAffine.
type Linear struct {
	W *Tensor // in×out
	B *Tensor // 1×out
}

// NewLinear allocates a layer with Xavier initialization.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	return &Linear{W: NewRandom(in, out, rng), B: NewTensor(1, out)}
}

// Params returns the trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// LSTMCell is a standard LSTM with combined gate weights: for input x (B×in)
// and state (h, c) (B×hidden each), gates = x·Wx + h·Wh + b laid out as
// [input | forget | output | candidate].
type LSTMCell struct {
	Wx     *Tensor // in×4h
	Wh     *Tensor // h×4h
	B      *Tensor // 1×4h
	Hidden int
}

// NewLSTMCell allocates a cell; the forget-gate bias starts at 1 for stable
// early training.
func NewLSTMCell(in, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		Wx:     NewRandom(in, 4*hidden, rng),
		Wh:     NewRandom(hidden, 4*hidden, rng),
		B:      NewTensor(1, 4*hidden),
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ {
		c.B.W[j] = 1
	}
	return c
}

// Step is StepBatch for one row with every row active.
//
//genielint:returns-arena
func (l *LSTMCell) Step(g *Graph, x, h, c *Tensor) (hNext, cNext *Tensor) {
	return g.lstmStepBatch(l, x, h, c, nil)
}

// StepBatch advances the cell one timestep for B stacked rows with the fused
// kernel: both gate matmuls, bias, activations and state update in one pass
// and one tape record (per row, the chained MatMul/Add/Sigmoid/Tanh/Mul
// composition's expressions). Rows where active is false carry their state
// through unchanged and contribute nothing to gradients (nil = all rows
// active); the active slice is retained until Backward/Reset.
//
//genielint:returns-arena
func (l *LSTMCell) StepBatch(g *Graph, x, h, c *Tensor, active []bool) (hNext, cNext *Tensor) {
	return g.lstmStepBatch(l, x, h, c, active)
}

// InitState returns fresh zero state tensors on the heap.
func (l *LSTMCell) InitState() (h, c *Tensor) {
	return NewTensor(1, l.Hidden), NewTensor(1, l.Hidden)
}

// Params returns the trainable tensors.
func (l *LSTMCell) Params() []*Tensor { return []*Tensor{l.Wx, l.Wh, l.B} }

// Embedding is a trainable token-embedding table, read with Graph.LookupRows.
type Embedding struct {
	Table *Tensor // vocab×dim
}

// NewEmbedding allocates an embedding table.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: NewRandom(vocab, dim, rng)}
}

// Params returns the trainable tensors.
func (e *Embedding) Params() []*Tensor { return []*Tensor{e.Table} }
