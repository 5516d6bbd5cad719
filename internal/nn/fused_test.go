package nn

import (
	"math"
	"math/rand"
	"testing"
)

// unfusedAffineRow is the op chain one row of BatchedAffine replaces.
func unfusedAffineRow(g *Graph, x, w, b *Tensor) *Tensor {
	return g.Add(g.MatMul(x, w), b)
}

// unfusedLSTMStep is the op chain one row of lstmStepBatch replaces.
func unfusedLSTMStep(g *Graph, l *LSTMCell, x, h, c *Tensor) (hNext, cNext *Tensor) {
	gates := g.Add(g.Add(g.MatMul(x, l.Wx), g.MatMul(h, l.Wh)), l.B)
	H := l.Hidden
	slice := func(from int) *Tensor { return g.sliceRow(gates, from*H, (from+1)*H) }
	i := g.Sigmoid(slice(0))
	f := g.Sigmoid(slice(1))
	o := g.Sigmoid(slice(2))
	cand := g.Tanh(slice(3))
	cNext = g.Add(g.Mul(f, c), g.Mul(i, cand))
	hNext = g.Mul(o, g.Tanh(cNext))
	return hNext, cNext
}

// unfusedAttention is the op chain one row of AttendSoftmaxContextBatch
// replaces.
func unfusedAttention(g *Graph, q, H *Tensor) (alpha, ctx *Tensor) {
	scores := g.AttendDot(q, H)
	alpha = g.SoftmaxRow(scores)
	ctx = g.WeightedSumRows(alpha, H)
	return alpha, ctx
}

const parityTol = 1e-13

func assertClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > parityTol*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d]: fused %g, unfused %g", name, i, got[i], want[i])
		}
	}
}

// cloneParams deep-copies tensors so fused and unfused passes start from
// identical weights and accumulate gradients independently.
func cloneParams(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	for i, t := range ts {
		c := NewTensor(t.Rows, t.Cols)
		copy(c.W, t.W)
		out[i] = c
	}
	return out
}

// TestAffineRowMatchesUnfused checks forward values and all gradients of the
// fused kernel against the Add(MatMul) composition.
func TestAffineRowMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := NewRandom(1, 5, rng)
	w := NewRandom(5, 7, rng)
	b := NewRandom(1, 7, rng)
	cl := cloneParams([]*Tensor{x, w, b})
	x2, w2, b2 := cl[0], cl[1], cl[2]

	g1 := NewGraph(true)
	out1 := g1.AffineRow(x, w, b)
	for i := range out1.DW {
		out1.DW[i] = float64(i + 1)
	}
	g1.Backward()

	g2 := NewGraph(true)
	out2 := unfusedAffineRow(g2, x2, w2, b2)
	for i := range out2.DW {
		out2.DW[i] = float64(i + 1)
	}
	g2.Backward()

	assertClose(t, "out", out1.W, out2.W)
	assertClose(t, "dx", x.DW, x2.DW)
	assertClose(t, "dW", w.DW, w2.DW)
	assertClose(t, "db", b.DW, b2.DW)
}

// TestAffineRowGradients checks the fused kernel against finite differences.
func TestAffineRowGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := NewRandom(1, 4, rng)
	w := NewRandom(4, 3, rng)
	b := NewRandom(1, 3, rng)
	checkGradients(t, []*Tensor{x, w, b}, func(g *Graph) *Tensor { return g.AffineRow(x, w, b) })
}

// TestLSTMStepMatchesUnfused checks the fused LSTM step against the chained
// MatMul/Add/Sigmoid/Tanh/Mul composition over two timesteps.
func TestLSTMStepMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cell := NewLSTMCell(3, 4, rng)
	x := NewRandom(1, 3, rng)
	cl := cloneParams([]*Tensor{x, cell.Wx, cell.Wh, cell.B})
	cell2 := &LSTMCell{Wx: cl[1], Wh: cl[2], B: cl[3], Hidden: cell.Hidden}
	x2 := cl[0]

	g1 := NewGraph(true)
	h0, c0 := cell.InitState()
	h1, c1 := cell.Step(g1, x, h0, c0)
	h2, c2 := cell.Step(g1, x, h1, c1)
	for i := range h2.DW {
		h2.DW[i] = float64(i + 1)
		c2.DW[i] = float64(2*i + 1)
	}
	g1.Backward()

	g2 := NewGraph(true)
	h0b, c0b := cell2.InitState()
	h1b, c1b := unfusedLSTMStep(g2, cell2, x2, h0b, c0b)
	h2b, c2b := unfusedLSTMStep(g2, cell2, x2, h1b, c1b)
	for i := range h2b.DW {
		h2b.DW[i] = float64(i + 1)
		c2b.DW[i] = float64(2*i + 1)
	}
	g2.Backward()

	assertClose(t, "h", h2.W, h2b.W)
	assertClose(t, "c", c2.W, c2b.W)
	assertClose(t, "dx", x.DW, x2.DW)
	assertClose(t, "dWx", cell.Wx.DW, cell2.Wx.DW)
	assertClose(t, "dWh", cell.Wh.DW, cell2.Wh.DW)
	assertClose(t, "dB", cell.B.DW, cell2.B.DW)
}

// TestLSTMStepFiniteDifferences checks the fused LSTM step's one-row call
// with an explicit row mask against central differences (TestLSTMCellGradients
// covers the same call through LSTMCell.Step).
func TestLSTMStepFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cell := NewLSTMCell(3, 4, rng)
	x := NewRandom(1, 3, rng)
	params := append([]*Tensor{x}, cell.Params()...)
	checkGradients(t, params, func(g *Graph) *Tensor {
		h, c := cell.InitState()
		h1, c1 := g.lstmStepBatch(cell, x, h, c, []bool{true})
		h2, _ := g.lstmStepBatch(cell, x, h1, c1, []bool{true})
		return h2
	})
}

// TestAttendSoftmaxContextMatchesUnfused checks the fused attention kernel
// against AttendDot + SoftmaxRow + WeightedSumRows, with gradients flowing
// into both outputs (the pointer loss reads alpha, the decoder reads ctx).
func TestAttendSoftmaxContextMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := NewRandom(1, 4, rng)
	H := NewRandom(3, 4, rng)
	cl := cloneParams([]*Tensor{q, H})
	q2, H2 := cl[0], cl[1]

	g1 := NewGraph(true)
	alpha1, ctx1 := g1.AttendSoftmaxContext(q, H)
	for i := range ctx1.DW {
		ctx1.DW[i] = float64(i + 1)
	}
	for i := range alpha1.DW {
		alpha1.DW[i] = float64(3*i + 2)
	}
	g1.Backward()

	g2 := NewGraph(true)
	alpha2, ctx2 := unfusedAttention(g2, q2, H2)
	for i := range ctx2.DW {
		ctx2.DW[i] = float64(i + 1)
	}
	for i := range alpha2.DW {
		alpha2.DW[i] = float64(3*i + 2)
	}
	g2.Backward()

	assertClose(t, "alpha", alpha1.W, alpha2.W)
	assertClose(t, "ctx", ctx1.W, ctx2.W)
	assertClose(t, "dq", q.DW, q2.DW)
	assertClose(t, "dH", H.DW, H2.DW)
}

// TestAttendSoftmaxContextFiniteDifferences drives the fused kernel's ctx
// output through the finite-difference checker.
func TestAttendSoftmaxContextFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	q := NewRandom(1, 4, rng)
	H := NewRandom(3, 4, rng)
	checkGradients(t, []*Tensor{q, H}, func(g *Graph) *Tensor {
		_, ctx := g.AttendSoftmaxContext(q, H)
		return ctx
	})
}

// TestArenaGraphMatchesHeapGraph runs the same fused network on an arena
// graph twice (with a Reset between) and on a heap graph, checking losses
// and gradients agree — recycled tensors must behave like fresh ones.
func TestArenaGraphMatchesHeapGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cell := NewLSTMCell(3, 4, rng)
	lin := NewLinear(4, 2, rng)
	x := NewRandom(1, 3, rng)

	run := func(g *Graph) []float64 {
		h, _ := cell.Step(g, x, g.NewTensor(1, 4), g.NewTensor(1, 4))
		out := g.AffineRow(h, lin.W, lin.B)
		for i := range out.DW {
			out.DW[i] = 1
		}
		g.Backward()
		grads := append([]float64(nil), cell.Wx.DW...)
		grads = append(grads, lin.W.DW...)
		grads = append(grads, x.DW...)
		for _, p := range append(cell.Params(), lin.W, lin.B, x) {
			p.ZeroGrad()
		}
		return grads
	}

	heap := run(NewGraph(true))
	ag := NewGraphArena(true, NewArena())
	first := run(ag)
	ag.Reset()
	second := run(ag)
	assertClose(t, "arena-vs-heap", first, heap)
	assertClose(t, "arena-after-reset", second, heap)
}

// TestArenaSteadyStateAllocationFree asserts that once warm, a full
// forward/backward/reset cycle over fused ops performs zero heap
// allocations.
func TestArenaSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(18))
	cell := NewLSTMCell(8, 16, rng)
	lin := NewLinear(16, 8, rng)
	x := NewRandom(1, 8, rng)
	g := NewGraphArena(true, NewArena())

	step := func() {
		g.Reset()
		h, c := g.NewTensor(1, 16), g.NewTensor(1, 16)
		for i := 0; i < 4; i++ {
			h, c = cell.Step(g, x, h, c)
		}
		out := g.AffineRow(h, lin.W, lin.B)
		for i := range out.DW {
			out.DW[i] = 1
		}
		g.Backward()
	}
	step() // warm the arena and tape
	if n := testing.AllocsPerRun(20, step); n > 0 {
		t.Errorf("steady-state fused step allocates: %v allocs/run", n)
	}
}
