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
// forward values an op needs to run its forward and backward passes. A single
// record type (rather than a closure per op) keeps the tape a flat, reusable
// slice with no per-op heap allocation.
type tapeOp struct {
	kind opKind

	a, b, c *Tensor // inputs (meaning is per-kind)
	out     *Tensor // primary output (the pointer mixture's per-row p)
	out2    *Tensor // secondary output (LSTM cell state)
	aux     *Tensor // stashed activations (LSTM gates, attention weights, dropout mask) / context attention
	aux2    *Tensor // scratch (LSTM tanh(c), attention score gradients) / context gate
	pre     *Tensor // the LSTM step's gate pre-activations (forward scratch)

	cell *LSTMCell // opLSTMStepBatch
	list []*Tensor // opPackMemory rows
	mask []bool    // opLSTMStepBatch row-active mask
	idx  int       // opSliceRow start

	// Batched-kernel operands. Slices are retained until Backward/Reset, so
	// callers must give every record a distinct backing (the model's batch
	// scratch slices positions out of one growing buffer per step).
	ints     []int     // opLookupRows ids / opAttendBatch+opPackMemory lens / opNLLPointerMixBatch vocab indices
	blocks   []int     // opAttendBatch memory block of each query row (inference; nil = row r attends block r)
	fvals    []float64 // opNLLPointerMixBatch per-row gradient scales
	nll      []float64 // opNLLPointerMixBatch per-row −log p (the caller's)
	masks    [][]bool  // opNLLPointerMixBatch per-row source copy masks
	ctxMasks [][]bool  // opNLLPointerMixBatch per-row context copy masks
}

// rows is the number of batch rows op o runs over: its output's rows, or for
// the packed memory its blocks.
func (o *tapeOp) rows() int {
	if o.kind == opPackMemory {
		return o.list[0].Rows
	}
	return o.out.Rows
}

// Graph is the autograd tape. Operations append typed records; Backward
// dispatches them in reverse through a single switch. A graph built with
// NeedsGrad=false skips recording (inference mode). When constructed with
// NewGraphArena, all intermediate tensors come from the arena and Reset
// recycles them between training steps, so a steady-state step allocates
// (near) nothing.
//
// An op runs when it is called, except on a split step (ResetStep over two
// rows or more): there every op is recorded, and Forward runs the whole
// forward at once, split at one row cut — the rows below it on the calling
// goroutine, the rest on a helper core (team.go). Every op is row-local: a
// row's outputs and input gradients depend only on that row.
//
// Backward has two phases. The first runs every op's row-local backward, the
// tape in reverse: on a split step at the row cut, elsewhere on the caller.
// The second sums what crosses rows — the gradients of the weights, biases
// and embedding tables, the parameters — each parameter's contributions in
// the order the first phase met their ops, on one core (reduce.go); on a
// split step the parameters are shared out between the two cores, elsewhere
// all run on the caller. BackwardStep then runs Adam on each parameter on
// the core that reduced it. As its sums run last, a parameter must be a leaf:
// no op reads its gradient during Backward, and it is complete once Backward
// returns.
// Views of one weight (Tensor.RowPrefix) share its first element and are
// told apart by shape.
//
//genielint:arena-source
type Graph struct {
	NeedsGrad bool
	arena     *Arena
	tape      []tapeOp
	j         job // the phase being run (team.go)
	procs     int // with NeedsGrad: GOMAXPROCS when the graph was made or last Reset

	// A split step: its batch rows (0: not a split step), the ops whose
	// forward has run, and the row cut, fixed by the first Forward.
	rows int
	ran  int
	cut  int

	// The parameter gradients of this Backward (reduce.go), one entry per
	// gradient, found by its first element.
	grads        []paramGrad
	gradIdx      map[*float64]int
	runs         [2]rowRun  // each part's gathered one-row products
	costs, parts []int      // scratch of share
	up           stepUpdate // BackwardStep's
	moms         []*moment  // BackwardStep: each parameter's moments
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

// newOut is NewTensor for an op's output. On a split step its W and DW are
// not cleared here but by the op's forward, each part on its own rows
// (zeroRows), on the core that then writes them.
func (g *Graph) newOut(rows, cols int) *Tensor {
	if g.arena == nil || g.rows == 0 {
		return g.NewTensor(rows, cols)
	}
	return g.arena.get(rows, cols, false)
}

// zeroRows clears rows [lo, hi) of t's W and DW.
func zeroRows(t *Tensor, lo, hi int) {
	clear(t.W[lo*t.Cols : hi*t.Cols])
	clear(t.DW[lo*t.Cols : hi*t.Cols])
}

// zeroGrads clears rows [lo, hi) of t's DW.
func zeroGrads(t *Tensor, lo, hi int) { clear(t.DW[lo*t.Cols : hi*t.Cols]) }

// exec runs op o, or on a split step records it for Forward; a graph that
// records gradients puts it on the tape.
func (g *Graph) exec(o *tapeOp) {
	if g.rows == 0 {
		g.forward(o, 0, o.rows())
		if g.NeedsGrad {
			g.tape = append(g.tape, *o)
		}
		return
	}
	switch o.kind {
	case opSoftmaxRow, opAttendDot, opWeightedSumRows, opSliceRow:
		panic("nn: a one-row op in a split step")
	}
	if o.rows() != g.rows {
		panic("nn: an op over other rows than its split step's")
	}
	g.tape = append(g.tape, *o)
}

// ResetStep is Reset for a training step over rows stacked rows. With two
// rows or more, on a graph that records gradients, the step is split: its
// ops are recorded, not run, and their outputs hold values only once Forward
// has run them (BackwardStep and Backward run it first if it has not). A
// caller reads nothing an op returns before that — the loss included, which
// NLLPointerMixBatch writes then.
func (g *Graph) ResetStep(rows int) {
	g.Reset()
	if g.NeedsGrad && rows >= 2 {
		g.rows = rows
	}
}

// Forward runs the forward of the ops recorded on a split step since the
// last Forward, split at the step's row cut; elsewhere ops have run already
// and it does nothing.
func (g *Graph) Forward() {
	if g.rows == 0 || g.ran == len(g.tape) {
		return
	}
	if g.ran == 0 {
		g.cut = g.rowCut()
	}
	g.j = job{run: forwardJob, g: g, first: g.ran, rcut: [3]int{0, g.cut, g.rows}}
	g.fork(&g.j)
	g.ran = len(g.tape)
}

func forwardJob(j *job, from, to int) {
	lo, hi := j.rcut[from], j.rcut[to]
	for i := j.first; i < len(j.g.tape); i++ {
		j.g.forward(&j.g.tape[i], lo, hi)
	}
}

// Backward runs the tape's row-local backward in reverse order, then the
// parameter gradients, and truncates the tape (keeping capacity). The caller
// seeds the gradient of the loss tensor (typically via the loss ops, which do
// it themselves); on a split step, after Forward.
func (g *Graph) Backward() { g.backward(nil) }

// BackwardStep is Backward followed by one Adam step on params: each
// parameter's gradient is reduced and updated on one core, on a split step
// the parameters shared out between the calling goroutine and a helper.
func (g *Graph) BackwardStep(opt *Adam, params []*Tensor) {
	g.up.opt, g.up.params = opt, params
	g.backward(&g.up)
	g.up.opt, g.up.params = nil, nil
}

func (g *Graph) backward(up *stepUpdate) {
	g.Forward()
	g.j = job{run: backwardJob, g: g, rcut: [3]int{0, g.cut, g.rows}}
	g.fork(&g.j)
	g.reduce(up)
	g.tape, g.ran = g.tape[:0], 0
}

// backwardJob runs the row-local backward of every op, in reverse, over the
// rows between cut points from and to; outside a split step over each op's
// rows.
func backwardJob(j *job, from, to int) {
	g := j.g
	lo, hi := j.rcut[from], j.rcut[to]
	for i := len(g.tape) - 1; i >= 0; i-- {
		o := &g.tape[i]
		if g.rows == 0 {
			lo, hi = 0, o.rows()
		}
		g.backRows(o, lo, hi)
	}
}

// Reset truncates the tape and recycles all arena intermediates. Any tensor
// previously returned by graph ops or NewTensor must not be used afterwards.
func (g *Graph) Reset() {
	g.tape = g.tape[:0]
	g.rows, g.ran, g.cut = 0, 0, 0
	if g.NeedsGrad {
		g.procs = runtime.GOMAXPROCS(0)
	}
	if g.arena != nil {
		g.arena.Reset()
	}
}

// rowCut is the split step's row cut: where the lower part's share of the
// step's multiply-adds first reaches half. A row's share is the products it
// runs through; an LSTM step's only while the row is active, an attention's
// over its memory length.
func (g *Graph) rowCut() int {
	var weight [64]int
	if g.rows > len(weight) {
		return g.rows / 2
	}
	w := weight[:g.rows]
	for i := range g.tape {
		o := &g.tape[i]
		switch o.kind {
		case opLSTMStepBatch:
			cost := (o.a.Cols + o.b.Cols) * o.cell.Wx.Cols
			for r := range w {
				if o.mask == nil || o.mask[r] {
					w[r] += cost
				}
			}
		case opAttendBatch:
			for r := range w {
				w[r] += 2 * o.ints[r] * o.a.Cols
			}
		case opAffineBatch, opMatMul:
			for r := range w {
				w[r] += o.b.Rows * o.b.Cols
			}
		}
	}
	total := 0
	for _, v := range w {
		total += v
	}
	cut, acc := 0, 0
	for cut < len(w) && 2*acc < total {
		acc += w[cut]
		cut++
	}
	return cut
}

// forward runs op o's forward over batch rows [lo, hi). On a split step it
// first clears what of those rows of the op's outputs the forward does not
// overwrite and the backward accumulates into, which newOut carved uncleared:
// the LSTM step's gates and tanh(c) are written before they are read, and so
// are the values of the elementwise ops, the softmax and the concatenation.
func (g *Graph) forward(o *tapeOp, lo, hi int) {
	if g.rows > 0 {
		switch o.kind {
		case opLookupRows:
			return // copied when recorded
		case opPackMemory:
			S := len(o.list)
			zeroRows(o.out, lo*S, hi*S)
		case opLSTMStepBatch:
			zeroRows(o.pre, lo, hi)
			zeroGrads(o.out, lo, hi)
			zeroGrads(o.out2, lo, hi)
		case opAttendBatch:
			for _, t := range [...]*Tensor{o.aux2, o.aux, o.out} {
				zeroRows(t, lo, hi)
			}
		case opAdd, opMul, opTanh, opSigmoid, opDropout, opSoftmaxRows, opConcatCols2:
			zeroGrads(o.out, lo, hi)
		default:
			zeroRows(o.out, lo, hi)
		}
	}
	switch o.kind {
	case opMatMul, opAffineBatch:
		forwardAffine(o, lo, hi)
	case opAdd, opMul, opTanh, opSigmoid, opDropout:
		forwardElementwise(o, lo, hi)
	case opSoftmaxRow:
		softmaxInto(o.a.W, o.out.W)
	case opAttendDot:
		attendDotInto(o.a.W, o.b.W, o.b.Rows, o.out.W)
	case opWeightedSumRows:
		matvec(o.out.W, o.a.W, o.b.W)
	case opSliceRow:
		copy(o.out.W, o.a.W[o.idx:])
	case opLSTMStepBatch:
		lstmStepRows(o, lo, hi)
	case opAttendBatch:
		attendRows(o, lo, hi)
	case opSoftmaxRows:
		softmaxRows(o.a, o.out, lo, hi)
	case opNLLPointerMixBatch:
		nllRows(o, lo, hi)
	case opLookupRows:
		lookupRows(o, lo, hi)
	case opConcatCols2:
		concatCols(o.a, o.b, o.out, lo, hi)
	case opPackMemory:
		packMemory(o, lo, hi)
	}
}

// backRows runs the row-local part of op o's backward over batch rows
// [lo, hi): the gradients of its inputs' rows. What it adds into a parameter
// across rows is its reductions' (reduce.go). Each case accumulates exactly
// as the closure-based tape used to, in the same order.
func (g *Graph) backRows(o *tapeOp, lo, hi int) {
	switch o.kind {
	case opMatMul:
		// The unfused product: each row's backward is the one-row chain.
		m, p := o.a.Cols, o.b.Cols
		for i := lo; i < hi; i++ {
			gradXRow(o.a.DW[i*m:(i+1)*m], o.out.DW[i*p:(i+1)*p], o.b.W)
		}
	case opAdd, opMul, opTanh, opSigmoid, opDropout:
		backElementwise(o, lo, hi)
	case opSoftmaxRow:
		backSoftmaxInto(o.out.W, o.out.DW, o.a.DW)
	case opAttendDot:
		backAttendDot(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opWeightedSumRows:
		// ctx = alpha·H is a row product with alpha the left operand.
		backRowMatMul(o.a.W, o.a.DW, o.b.W, o.b.DW, o.out.DW)
	case opSliceRow:
		for i, d := range o.out.DW {
			o.a.DW[o.idx+i] += d
		}
	case opAffineBatch:
		x, w := o.a, o.b
		backProductRows(x.DW, x.Rows, x.Cols, w.W, w.Cols, o.out.DW, nil, lo, hi)
	case opLSTMStepBatch:
		backLSTMRows(o, lo, hi)
	case opAttendBatch:
		backAttendRows(o, lo, hi)
	case opSoftmaxRows:
		backSoftmaxRows(o.a, o.out, lo, hi)
	case opNLLPointerMixBatch:
		backNLLPointerMixBatch(o, lo, hi)
	case opConcatCols2:
		backConcatCols2(o.a, o.b, o.out, lo, hi)
	case opPackMemory:
		backPackMemory(o, lo, hi)
	}
}
