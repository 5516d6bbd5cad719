package nn

import "runtime"

// opKind identifies one autograd operation on the typed tape.
type opKind uint8

const (
	opMatMul opKind = iota
	opAdd
	opMul
	opTanh
	opSigmoid
	opDropout
	opSoftmaxRow
	opAttendDot
	opWeightedSumRows
	opSliceRow
	opAffineBatch
	opLSTMStepBatch
	opAttendBatch
	opSoftmaxRows
	opNLLPointerMixBatch
	opLookupRows
	opConcatCols2
	opPackMemory
)

// tapeOp is one record of the typed tape: the operands, outputs and stashed
// forward values an op needs to run its backward pass. A single record type
// (rather than a closure per op) keeps the tape a flat, reusable slice with
// no per-op heap allocation.
type tapeOp struct {
	kind opKind

	a, b, c *Tensor // inputs (meaning is per-kind)
	out     *Tensor // primary output (the pointer mixture's per-row p)
	out2    *Tensor // secondary output (LSTM cell state)
	aux     *Tensor // stashed activations (LSTM gates, attention weights, dropout mask) / context attention
	aux2    *Tensor // scratch (LSTM tanh(c), attention score gradients) / context gate

	cell *LSTMCell // opLSTMStepBatch
	list []*Tensor // opPackMemory rows
	mask []bool    // opLSTMStepBatch row-active mask
	idx  int       // opSliceRow start

	// Batched-kernel operands. Slices are retained until Backward/Reset, so
	// callers must give every record a distinct backing (the model's batch
	// scratch slices positions out of one growing buffer per step).
	ints     []int     // opLookupRows ids / opAttendBatch+opPackMemory lens / opNLLPointerMixBatch vocab indices
	fvals    []float64 // opNLLPointerMixBatch per-row gradient scales
	masks    [][]bool  // opNLLPointerMixBatch per-row source copy masks
	ctxMasks [][]bool  // opNLLPointerMixBatch per-row context copy masks
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
	j         job // the op being split (team.go)
	procs     int // with NeedsGrad: GOMAXPROCS when the graph was made or last Reset
}

// NewGraph returns a tape that records gradients; intermediates are
// heap-allocated (no arena).
func NewGraph(needsGrad bool) *Graph { return NewGraphArena(needsGrad, nil) }

// NewGraphArena returns a tape whose intermediate tensors are drawn from
// arena. Call Reset between steps to recycle them; tensors obtained from the
// graph are invalid after Reset. Parameters stay heap-owned by the caller.
func NewGraphArena(needsGrad bool, arena *Arena) *Graph {
	g := &Graph{NeedsGrad: needsGrad, arena: arena}
	if needsGrad {
		g.procs = runtime.GOMAXPROCS(0)
	}
	return g
}

// NewTensor allocates an intermediate tensor owned by this graph: from the
// arena when the graph has one (recycled on Reset), from the heap otherwise.
func (g *Graph) NewTensor(rows, cols int) *Tensor {
	if g.arena != nil {
		return g.arena.Get(rows, cols)
	}
	return NewTensor(rows, cols)
}

// newRows is NewTensor for the output of an op over rows rows that the
// graph splits: its W and DW are not cleared here but by the op's parts,
// each on its own rows (zeroRows), on the core that then writes them.
func (g *Graph) newRows(rows, cols int) *Tensor {
	if g.arena == nil || !g.splits(rows) {
		return g.NewTensor(rows, cols)
	}
	return g.arena.get(rows, cols, false)
}

// zeroRows clears rows [lo, hi) of t's W and DW.
func zeroRows(t *Tensor, lo, hi int) {
	clear(t.W[lo*t.Cols : hi*t.Cols])
	clear(t.DW[lo*t.Cols : hi*t.Cols])
}

func (g *Graph) push(o tapeOp) {
	if g.NeedsGrad {
		g.tape = append(g.tape, o)
	}
}

// record pushes o on a graph that records gradients and returns the tape's
// copy, valid until the next push.
func (g *Graph) record(o tapeOp) *tapeOp {
	g.tape = append(g.tape, o)
	return &g.tape[len(g.tape)-1]
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
	if g.NeedsGrad {
		g.procs = runtime.GOMAXPROCS(0)
	}
	if g.arena != nil {
		g.arena.Reset()
	}
}

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
	case opDropout:
		mask := o.aux.W
		for i := range o.out.DW {
			o.a.DW[i] += o.out.DW[i] * mask[i]
		}
	case opSoftmaxRow:
		backSoftmaxInto(o.out.W, o.out.DW, o.a.DW)
	case opAttendDot:
		backAttendDot(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opWeightedSumRows:
		// ctx = alpha·H is a row product with alpha the left operand.
		backRowMatMul(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opSliceRow:
		a, out := o.a, o.out
		for i := range out.DW {
			a.DW[o.idx+i] += out.DW[i]
		}
	case opAffineBatch:
		g.backAffineBatch(o.a, o.b, o.c, o.out)
	case opLSTMStepBatch:
		g.backLSTMStepBatch(o)
	case opAttendBatch:
		g.backAttendBatch(o)
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
	}
}

// backMatMul is the single-row backward once per row of a, rows ascending.
func backMatMul(a, b, out *Tensor) {
	m, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		backRowMatMul(a.W[i*m:(i+1)*m], a.DW[i*m:(i+1)*m], b.W, b.DW, out.DW[i*p:(i+1)*p])
	}
}
