package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// stackRows copies B single-row tensors into one B×n batch tensor.
func stackRows(rows []*Tensor) *Tensor {
	n := rows[0].Cols
	out := NewTensor(len(rows), n)
	for i, r := range rows {
		copy(out.W[i*n:(i+1)*n], r.W)
	}
	return out
}

// seedBatchGrad fills row i of a batch output gradient and the matching
// single-row output gradient with the same per-element pattern.
func seedBatchGrad(batch *Tensor, singles []*Tensor) {
	n := batch.Cols
	for i, s := range singles {
		for j := 0; j < n; j++ {
			v := float64(i*n+j) + 1
			batch.DW[i*n+j] = v
			s.DW[j] = v
		}
	}
}

// TestBatchedAffineMatchesRows checks forward values and all gradients of
// the batched kernel against B independent unfused Add(MatMul) chains
// (TestAffineRowMatchesUnfused holds the one-row call to the same chain).
func TestBatchedAffineMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const B, in, n = 3, 5, 7
	w := NewRandom(in, n, rng)
	b := NewRandom(1, n, rng)
	w2 := cloneParams([]*Tensor{w, b})
	xs := make([]*Tensor, B)
	for i := range xs {
		xs[i] = NewRandom(1, in, rng)
	}
	x := stackRows(xs)

	gb := NewGraph(true)
	out := gb.BatchedAffine(x, w, b)

	gs := NewGraph(true)
	singles := make([]*Tensor, B)
	for i := range xs {
		singles[i] = unfusedAffineRow(gs, xs[i], w2[0], w2[1])
	}
	seedBatchGrad(out, singles)
	gb.Backward()
	gs.Backward()

	for i := range xs {
		assertClose(t, "out", out.W[i*n:(i+1)*n], singles[i].W)
		assertClose(t, "dx", x.DW[i*in:(i+1)*in], xs[i].DW)
	}
	assertClose(t, "dW", w.DW, w2[0].DW)
	assertClose(t, "db", b.DW, w2[1].DW)
}

func TestBatchedAffineGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x := NewRandom(3, 4, rng)
	w := NewRandom(4, 5, rng)
	b := NewRandom(1, 5, rng)
	checkGradients(t, []*Tensor{x, w, b}, func(g *Graph) *Tensor { return g.BatchedAffine(x, w, b) })
}

// TestLSTMStepBatchMatchesRows runs two batched timesteps (with one row
// going inactive on the second) against per-row unfused chains: active rows
// must match the chain, and the inactive row must carry its state through
// with pass-through gradients and no weight contribution
// (TestLSTMStepMatchesUnfused holds the one-row call to the same chain).
func TestLSTMStepBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const B, in, H = 3, 4, 5
	cell := NewLSTMCell(in, H, rng)
	cl := cloneParams([]*Tensor{cell.Wx, cell.Wh, cell.B})
	cell2 := &LSTMCell{Wx: cl[0], Wh: cl[1], B: cl[2], Hidden: H}
	xs := make([]*Tensor, B)
	for i := range xs {
		xs[i] = NewRandom(1, in, rng)
	}
	x := stackRows(xs)
	active := []bool{true, true, false} // row 2 stops after the first step

	gb := NewGraph(true)
	h0 := NewTensor(B, H)
	c0 := NewTensor(B, H)
	h1, c1 := cell.StepBatch(gb, x, h0, c0, nil)
	h2, c2 := cell.StepBatch(gb, x, h1, c1, active)

	gs := NewGraph(true)
	singleH := make([]*Tensor, B)
	singleC := make([]*Tensor, B)
	x2 := cloneParams(xs)
	for i := range xs {
		h, c := cell2.InitState()
		h, c = unfusedLSTMStep(gs, cell2, x2[i], h, c)
		if active[i] {
			h, c = unfusedLSTMStep(gs, cell2, x2[i], h, c)
		}
		singleH[i], singleC[i] = h, c
	}
	seedBatchGrad(h2, singleH)
	seedBatchGrad(c2, singleC)
	gb.Backward()
	gs.Backward()

	for i := range xs {
		assertClose(t, "h", h2.W[i*H:(i+1)*H], singleH[i].W)
		assertClose(t, "c", c2.W[i*H:(i+1)*H], singleC[i].W)
		assertClose(t, "dx", x.DW[i*in:(i+1)*in], x2[i].DW)
	}
	assertClose(t, "dWx", cell.Wx.DW, cell2.Wx.DW)
	assertClose(t, "dWh", cell.Wh.DW, cell2.Wh.DW)
	assertClose(t, "dB", cell.B.DW, cell2.B.DW)
}

func TestLSTMStepBatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cell := NewLSTMCell(3, 4, rng)
	x := NewRandom(2, 3, rng)
	active := []bool{true, false}
	params := append([]*Tensor{x}, cell.Params()...)
	checkGradients(t, params, func(g *Graph) *Tensor {
		h := NewTensor(2, 4)
		c := NewTensor(2, 4)
		h, c = cell.StepBatch(g, x, h, c, nil)
		h, _ = cell.StepBatch(g, x, h, c, active)
		return h
	})
}

// TestAttendBatchMatchesRows checks the batched masked attention against
// per-sequence unfused AttendDot/SoftmaxRow/WeightedSumRows chains over
// unpadded memories (TestAttendSoftmaxContextMatchesUnfused holds the one-row
// call to the same chain).
func TestAttendBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const B, S, d = 3, 4, 5
	lens := []int{4, 2, 3}
	qs := make([]*Tensor, B)
	mems := make([]*Tensor, B)
	for i := range qs {
		qs[i] = NewRandom(1, d, rng)
		mems[i] = NewRandom(lens[i], d, rng)
	}
	q := stackRows(qs)
	H := NewTensor(B*S, d)
	for b := 0; b < B; b++ {
		copy(H.W[b*S*d:(b*S+lens[b])*d], mems[b].W)
	}

	gb := NewGraph(true)
	alpha, ctx := gb.AttendSoftmaxContextBatch(q, H, nil, lens)

	gs := NewGraph(true)
	q2 := cloneParams(qs)
	singleA := make([]*Tensor, B)
	singleC := make([]*Tensor, B)
	mems2 := cloneParams(mems)
	for i := range qs {
		singleA[i], singleC[i] = unfusedAttention(gs, q2[i], mems2[i])
	}
	seedBatchGrad(ctx, singleC)
	for i := range qs {
		for j := 0; j < lens[i]; j++ {
			v := float64(3*(i*S+j) + 2)
			alpha.DW[i*S+j] = v
			singleA[i].DW[j] = v
		}
	}
	gb.Backward()
	gs.Backward()

	for i := range qs {
		assertClose(t, "alpha", alpha.W[i*S:i*S+lens[i]], singleA[i].W)
		assertClose(t, "ctx", ctx.W[i*d:(i+1)*d], singleC[i].W)
		assertClose(t, "dq", q.DW[i*d:(i+1)*d], q2[i].DW)
		assertClose(t, "dH", H.DW[i*S*d:(i*S+lens[i])*d], mems2[i].DW)
		// Padding rows beyond the sequence length must stay untouched.
		for j := lens[i] * d; j < S*d; j++ {
			if H.DW[i*S*d+j] != 0 {
				t.Fatalf("gradient leaked into padding row of block %d", i)
			}
		}
		for j := lens[i]; j < S; j++ {
			if alpha.W[i*S+j] != 0 {
				t.Fatalf("attention mass leaked into padding of block %d", i)
			}
		}
	}
}

func TestAttendBatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const B, S, d = 2, 3, 4
	lens := []int{3, 2}
	q := NewRandom(B, d, rng)
	H := NewRandom(B*S, d, rng)
	// Zero the padding rows so the packed-memory invariant holds.
	for b := 0; b < B; b++ {
		for i := lens[b]; i < S; i++ {
			for j := 0; j < d; j++ {
				H.W[(b*S+i)*d+j] = 0
			}
		}
	}
	checkGradients(t, []*Tensor{q, H}, func(g *Graph) *Tensor {
		_, ctx := g.AttendSoftmaxContextBatch(q, H, nil, lens)
		return ctx
	})
}

func TestSoftmaxRowsMatchesRowsAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const B, n = 3, 6
	rows := make([]*Tensor, B)
	for i := range rows {
		rows[i] = NewRandom(1, n, rng)
	}
	a := stackRows(rows)

	gb := NewGraph(true)
	out := gb.SoftmaxRows(a)
	gs := NewGraph(true)
	a2 := cloneParams(rows)
	singles := make([]*Tensor, B)
	for i := range rows {
		singles[i] = gs.SoftmaxRow(a2[i])
	}
	seedBatchGrad(out, singles)
	gb.Backward()
	gs.Backward()
	for i := range rows {
		assertClose(t, "softmax", out.W[i*n:(i+1)*n], singles[i].W)
		assertClose(t, "dsoftmax", a.DW[i*n:(i+1)*n], a2[i].DW)
	}

	b := NewRandom(3, 4, rng)
	checkGradients(t, []*Tensor{b}, func(g *Graph) *Tensor { return g.SoftmaxRows(b) })
}

func TestLookupRowsConcatColsPackMemoryGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	emb := NewRandom(5, 3, rng)
	// Duplicate ids: gradients of a repeated row must accumulate.
	checkGradients(t, []*Tensor{emb}, func(g *Graph) *Tensor {
		return g.LookupRows(emb, []int{2, 0, 2})
	})
	a := NewRandom(2, 3, rng)
	b := NewRandom(2, 4, rng)
	checkGradients(t, []*Tensor{a, b}, func(g *Graph) *Tensor { return g.ConcatCols(a, b) })
	r0 := NewRandom(2, 3, rng)
	r1 := NewRandom(2, 3, rng)
	checkGradients(t, []*Tensor{r0, r1}, func(g *Graph) *Tensor {
		return g.PackMemoryBatch([]*Tensor{r0, r1}, []int{2, 1})
	})
}

// naivePointerMix is one row's −log p written out from the mixture's
// definition; cgate 0 without a context memory is the single-memory form.
func naivePointerMix(pv, alpha, beta []float64, gate, cgate float64, srcMask, ctxMask []bool, idx int) float64 {
	var pvIdx, ps, pc float64
	if idx >= 0 {
		pvIdx = pv[idx]
	}
	for i, m := range srcMask {
		if m {
			ps += alpha[i]
		}
	}
	for i, m := range ctxMask {
		if m {
			pc += beta[i]
		}
	}
	return -math.Log(gate*pvIdx + (1-gate)*((1-cgate)*ps+cgate*pc) + nllEps)
}

// TestNLLPointerMixBatchMatchesRows checks, with and without the context
// half, every row of a B-row call against a one-row call over that row —
// losses and gradients bit for bit — and the losses against the mixture's
// definition; a zero gradScale skips a row entirely.
func TestNLLPointerMixBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const B, V, S, M = 3, 5, 3, 2
	srcMasks := [][]bool{{true, false, true}, {false, true, false}, nil}
	ctxMasks := [][]bool{{false, true}, {true, true}, {true, false}}
	idxs := []int{2, -1, 4}
	// The raw scores behind the vocabulary distribution, the source and
	// context attentions, the gate and the context gate.
	raw := []*Tensor{NewRandom(B, V, rng), NewRandom(B, S, rng), NewRandom(B, M, rng), NewRandom(B, 1, rng), NewRandom(B, 1, rng)}
	// run records the mixture over the given rows of raw, checks each loss
	// against the definition, runs backward, and returns the losses and the
	// gradients of its copy of the raw scores.
	run := func(ctx bool, rows []int, scale []float64) ([]float64, []*Tensor) {
		n := len(rows)
		in := make([]*Tensor, len(raw))
		for k, r := range raw {
			in[k] = NewTensor(n, r.Cols)
			for i, b := range rows {
				copy(in[k].Row(i), r.Row(b))
			}
		}
		src, cm, idx := make([][]bool, n), make([][]bool, n), make([]int, n)
		for i, b := range rows {
			src[i], cm[i], idx[i] = srcMasks[b], ctxMasks[b], idxs[b]
		}
		g := NewGraph(true)
		pv, al, gate := g.SoftmaxRows(in[0]), g.SoftmaxRows(in[1]), g.Sigmoid(in[3])
		var be, cg *Tensor
		if ctx {
			be, cg = g.SoftmaxRows(in[2]), g.Sigmoid(in[4])
		} else {
			cm = nil
		}
		nll := make([]float64, n)
		g.NLLPointerMixBatch(pv, al, gate, src, be, cg, cm, idx, scale, nll)
		for i := range rows {
			want := 0.0
			switch {
			case scale[i] == 0:
			case ctx:
				want = naivePointerMix(pv.Row(i), al.Row(i), be.Row(i), gate.W[i], cg.W[i], src[i], cm[i], idx[i])
			default:
				want = naivePointerMix(pv.Row(i), al.Row(i), nil, gate.W[i], 0, src[i], nil, idx[i])
			}
			if math.Abs(nll[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("ctx=%v rows %v: nll[%d] = %g, definition %g", ctx, rows, i, nll[i], want)
			}
		}
		g.Backward()
		return nll, in
	}
	for _, ctx := range []bool{false, true} {
		all, allGrads := run(ctx, []int{0, 1, 2}, []float64{1, 1, 1})
		for b := 0; b < B; b++ {
			one, oneGrads := run(ctx, []int{b}, []float64{1})
			if !sameBits(one[0], all[b]) {
				t.Fatalf("ctx=%v row %d: one-row nll %g, B-row nll %g", ctx, b, one[0], all[b])
			}
			for k, r := range raw {
				assertSameBits(t, "gradient", oneGrads[k].DW, allGrads[k].DW[b*r.Cols:(b+1)*r.Cols])
			}
		}
		// A padded row (scale 0) reports zero loss and receives zero gradient.
		nll, grads := run(ctx, []int{0, 1, 2}, []float64{1, 0, 1})
		if nll[1] != 0 {
			t.Fatalf("ctx=%v: padded row reported loss %g", ctx, nll[1])
		}
		for k, r := range raw {
			for _, d := range grads[k].DW[r.Cols : 2*r.Cols] {
				if d != 0 {
					t.Fatalf("ctx=%v: padded row received gradient in input %d", ctx, k)
				}
			}
		}
	}
}

// TestNLLPointerMixBatchFiniteDifferences drives the batched pointer loss
// through central differences on raw scores, batching gradient scales too.
func TestNLLPointerMixBatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const B, V, S = 2, 4, 3
	scoresV := NewRandom(B, V, rng)
	scoresA := NewRandom(B, S, rng)
	gateRaw := NewRandom(B, 1, rng)
	masks := [][]bool{{true, false, true}, {false, true, true}}
	idxs := []int{1, 3}
	scale := []float64{0.5, 0.25}
	nll := make([]float64, B)

	loss := func() float64 {
		g := NewGraph(false)
		pv := g.SoftmaxRows(scoresV)
		al := g.SoftmaxRows(scoresA)
		gate := g.Sigmoid(gateRaw)
		g.NLLPointerMixBatch(pv, al, gate, masks, nil, nil, nil, idxs, scale, nll)
		var s float64
		for b, v := range nll {
			s += scale[b] * v
		}
		return s
	}
	g := NewGraph(true)
	pv := g.SoftmaxRows(scoresV)
	al := g.SoftmaxRows(scoresA)
	gate := g.Sigmoid(gateRaw)
	g.NLLPointerMixBatch(pv, al, gate, masks, nil, nil, nil, idxs, scale, nll)
	g.Backward()
	for _, p := range []*Tensor{scoresV, scoresA, gateRaw} {
		for i := range p.W {
			want := numericalGrad(p, i, loss)
			got := p.DW[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("batched pointer mix grad mismatch: analytic %g numeric %g", got, want)
			}
		}
	}
}

// TestBatchedKernelsAssemblyMatchesPureGo pins the bodies of the kernel
// family against each other through the ops built on them: the same batched
// network — LSTM steps with a row mask, masked attention, affine, softmax —
// run forward and backward under each assembly body and under the pure-Go
// reference must produce bitwise-identical outputs and gradients.
func TestBatchedKernelsAssemblyMatchesPureGo(t *testing.T) {
	bodies := asmKernels()
	if len(bodies) == 0 {
		t.Skip("no assembly kernel body in this build or on this CPU")
	}
	const B, in, H, S = 32, 64, 128, 40
	rng := rand.New(rand.NewSource(42))
	cell := NewLSTMCell(in, H, rng)
	lin := NewLinear(H, 512, rng)
	x := NewRandom(B, in, rng)
	mem := NewRandom(B*S, H, rng)
	lens := make([]int, B)
	for b := range lens {
		lens[b] = S - b%7 // mixed valid prefixes exercise the masking
	}
	active := make([]bool, B)
	for b := range active {
		active[b] = b%5 != 0
	}
	params := append([]*Tensor{x, mem, lin.W, lin.B}, cell.Params()...)

	run := func() []float64 {
		g := NewGraph(true)
		h := NewTensor(B, H)
		c := NewTensor(B, H)
		h, c = cell.StepBatch(g, x, h, c, nil)
		h, _ = cell.StepBatch(g, x, h, c, active)
		alpha, ctx := g.AttendSoftmaxContextBatch(h, mem, nil, lens)
		out := g.SoftmaxRows(g.BatchedAffine(ctx, lin.W, lin.B))
		for i := range out.DW {
			out.DW[i] = float64(i%13) + 1
		}
		for i := range alpha.DW {
			alpha.DW[i] = float64(i % 7)
		}
		g.Backward()
		res := append([]float64(nil), out.W...)
		res = append(res, alpha.W...)
		for _, p := range params {
			res = append(res, p.DW...)
			p.ZeroGrad()
		}
		return res
	}

	useKernels(t, goKernels)
	pure := run()
	for name, asm := range bodies {
		useKernels(t, asm)
		assembly := run()
		if len(pure) != len(assembly) {
			t.Fatalf("%s: result length mismatch: %d vs %d", name, len(pure), len(assembly))
		}
		for i := range pure {
			if math.Float64bits(pure[i]) != math.Float64bits(assembly[i]) {
				t.Fatalf("%s kernels diverge from pure Go at element %d: %g vs %g",
					name, i, assembly[i], pure[i])
			}
		}
	}
}

// TestBatchedKernelsArenaSteadyState asserts a warm batched
// forward/backward/reset cycle allocates nothing, at B rows as at one; and at
// GOMAXPROCS 4, where its ops are split and the helpers run their upper
// parts, that it allocates less than once per cycle (testing.AllocsPerRun
// pins GOMAXPROCS to 1, so the mallocs are counted there, and they include
// the scheduler's own: a thread or a wait record now and then as helpers
// park and wake).
func TestBatchedKernelsArenaSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	const B, in, H = 4, 6, 8
	cell := NewLSTMCell(in, H, rng)
	lin := NewLinear(H, in, rng)
	x := NewRandom(B, in, rng)
	g := NewGraphArena(true, NewArena())
	step := func() {
		g.Reset()
		h := g.NewTensor(B, H)
		c := g.NewTensor(B, H)
		for i := 0; i < 3; i++ {
			h, c = cell.StepBatch(g, x, h, c, nil)
		}
		out := g.SoftmaxRows(g.BatchedAffine(h, lin.W, lin.B))
		for i := range out.DW {
			out.DW[i] = 1
		}
		g.Backward()
	}
	step() // warm the arena and tape
	if n := testing.AllocsPerRun(20, step); n > 0 {
		t.Errorf("steady-state batched step allocates: %v allocs/run", n)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for i := 0; i < 50; i++ {
		step() // the helpers start, the runtime's caches warm
	}
	const runs = 20
	posted := helpers.posted.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if helpers.posted.Load() == posted {
		t.Error("no op was split at GOMAXPROCS 4")
	}
	if n := after.Mallocs - before.Mallocs; n >= runs {
		t.Errorf("steady-state batched step at GOMAXPROCS 4 allocates: %d allocs in %d runs", n, runs)
	}
}
