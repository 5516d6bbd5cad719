package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericalGrad estimates d(loss)/d(param[i]) with central differences.
func numericalGrad(param *Tensor, i int, loss func() float64) float64 {
	const h = 1e-5
	orig := param.W[i]
	param.W[i] = orig + h
	up := loss()
	param.W[i] = orig - h
	down := loss()
	param.W[i] = orig
	return (up - down) / (2 * h)
}

// sumLoss runs f in a fresh graph and returns the scalar sum of the output;
// used as a simple differentiable objective.
func checkGradients(t *testing.T, params []*Tensor, forward func(g *Graph) *Tensor) {
	t.Helper()
	loss := func() float64 {
		g := NewGraph(false)
		out := forward(g)
		var s float64
		for i, v := range out.W {
			s += v * float64(i+1) // weighted so gradients differ per element
		}
		return s
	}
	// Analytic gradients.
	g := NewGraph(true)
	out := forward(g)
	for i := range out.DW {
		out.DW[i] = float64(i + 1)
	}
	g.Backward()
	for pi, p := range params {
		for i := range p.W {
			want := numericalGrad(p, i, loss)
			got := p.DW[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic %g, numeric %g", pi, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestMatMulGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandom(3, 4, rng)
	b := NewRandom(4, 2, rng)
	checkGradients(t, []*Tensor{a, b}, func(g *Graph) *Tensor { return g.MatMul(a, b) })
}

func TestElementwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRandom(2, 3, rng)
	b := NewRandom(2, 3, rng)
	checkGradients(t, []*Tensor{a, b}, func(g *Graph) *Tensor { return g.Add(a, b) })
	checkGradients(t, []*Tensor{a, b}, func(g *Graph) *Tensor { return g.Mul(a, b) })
	checkGradients(t, []*Tensor{a}, func(g *Graph) *Tensor { return g.Tanh(a) })
	checkGradients(t, []*Tensor{a}, func(g *Graph) *Tensor { return g.Sigmoid(a) })
}

// TestConcatLookupSliceGradients checks the one-row calls the model makes of
// ConcatCols and LookupRows, and the unfused sliceRow.
func TestConcatLookupSliceGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewRandom(1, 3, rng)
	b := NewRandom(1, 2, rng)
	checkGradients(t, []*Tensor{a, b}, func(g *Graph) *Tensor { return g.ConcatCols(a, b) })
	emb := NewRandom(5, 4, rng)
	checkGradients(t, []*Tensor{emb}, func(g *Graph) *Tensor { return g.LookupRows(emb, []int{2}) })
	c := NewRandom(1, 6, rng)
	checkGradients(t, []*Tensor{c}, func(g *Graph) *Tensor { return g.sliceRow(c, 1, 4) })
}

func TestSoftmaxAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewRandom(1, 5, rng)
	checkGradients(t, []*Tensor{a}, func(g *Graph) *Tensor { return g.SoftmaxRow(a) })
	q := NewRandom(1, 4, rng)
	H := NewRandom(3, 4, rng)
	checkGradients(t, []*Tensor{q, H}, func(g *Graph) *Tensor { return g.AttendDot(q, H) })
	alpha := NewRandom(1, 3, rng)
	checkGradients(t, []*Tensor{alpha, H}, func(g *Graph) *Tensor { return g.WeightedSumRows(alpha, H) })
}

func TestLSTMCellGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cell := NewLSTMCell(3, 4, rng)
	x := NewRandom(1, 3, rng)
	params := append([]*Tensor{x}, cell.Params()...)
	checkGradients(t, params, func(g *Graph) *Tensor {
		h, c := cell.InitState()
		h1, c1 := cell.Step(g, x, h, c)
		h2, _ := cell.Step(g, x, h1, c1)
		return h2
	})
}

// TestPointerMixGradients drives the context half of the batched pointer
// mixture through central differences on raw scores: a row with an
// in-vocabulary target copyable from both memories, a row with an OOV target
// (pure copy), and a padded row (gradScale 0) that must report no loss and
// receive no gradient.
func TestPointerMixGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const B, V, S, M = 3, 4, 3, 4
	scoresV := NewRandom(B, V, rng)
	scoresA := NewRandom(B, S, rng)
	scoresB := NewRandom(B, M, rng)
	gateRaw := NewRandom(B, 1, rng)
	ctxRaw := NewRandom(B, 1, rng)
	srcMasks := [][]bool{{true, false, true}, {false, true, false}, {true, true, true}}
	ctxMasks := [][]bool{{false, true, false, true}, {true, false, false, false}, {true, true, true, true}}
	idxs := []int{2, -1, 1}
	scale := []float64{0.5, 1, 0}
	nll := make([]float64, B)
	forward := func(g *Graph) {
		pv := g.SoftmaxRows(scoresV)
		al := g.SoftmaxRows(scoresA)
		be := g.SoftmaxRows(scoresB)
		gate := g.Sigmoid(gateRaw)
		cg := g.Sigmoid(ctxRaw)
		g.NLLPointerMixBatch(pv, al, gate, srcMasks, be, cg, ctxMasks, idxs, scale, nll)
	}
	loss := func() float64 {
		forward(NewGraph(false))
		var s float64
		for b, v := range nll {
			s += scale[b] * v
		}
		return s
	}
	g := NewGraph(true)
	forward(g)
	if nll[2] != 0 {
		t.Fatalf("padded row reported loss %g", nll[2])
	}
	for b := 0; b < 2; b++ {
		if math.IsNaN(nll[b]) || math.IsInf(nll[b], 0) || nll[b] <= 0 {
			t.Fatalf("row %d: loss %g not finite and positive", b, nll[b])
		}
	}
	g.Backward()
	for pi, p := range []*Tensor{scoresV, scoresA, scoresB, gateRaw, ctxRaw} {
		for i := range p.W {
			want := numericalGrad(p, i, loss)
			got := p.DW[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("context pointer mix grad mismatch: param %d elem %d analytic %g numeric %g", pi, i, got, want)
			}
			if i/p.Cols == 2 && got != 0 {
				t.Fatalf("padded row received gradient: param %d elem %d = %g", pi, i, got)
			}
		}
	}
}

func TestQuickSoftmaxIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(10)
		a := NewRandom(1, n, rng)
		g := NewGraph(false)
		p := g.SoftmaxRow(a)
		var sum float64
		for _, v := range p.W {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdamConvergesOnToyProblem(t *testing.T) {
	// Fit y = 2x - 3 with a single linear unit.
	rng := rand.New(rand.NewSource(8))
	lin := NewLinear(1, 1, rng)
	opt := NewAdam(0.05)
	var lastLoss float64
	for step := 0; step < 400; step++ {
		x := rng.Float64()*4 - 2
		target := 2*x - 3
		g := NewGraph(true)
		in := NewTensor(1, 1)
		in.W[0] = x
		out := g.AffineRow(in, lin.W, lin.B)
		diff := out.W[0] - target
		lastLoss = diff * diff
		out.DW[0] = 2 * diff
		g.BackwardStep(opt, lin.Params())
	}
	if lastLoss > 1e-2 {
		t.Errorf("Adam failed to fit a line: final loss %g, W=%g b=%g", lastLoss, lin.W.W[0], lin.B.W[0])
	}
}

func TestGradientClipping(t *testing.T) {
	p := NewTensor(1, 2)
	p.DW[0], p.DW[1] = 30, 40 // norm 50
	opt := NewAdam(0.1)
	opt.Clip = 5
	before := [2]float64{p.DW[0], p.DW[1]}
	NewGraph(true).BackwardStep(opt, []*Tensor{p})
	_ = before
	// After the step gradients are cleared; verify the update magnitude is
	// bounded (clipped direction preserved).
	if math.Abs(p.W[0]) > 0.2 || math.Abs(p.W[1]) > 0.2 {
		t.Errorf("clipped update too large: %v", p.W)
	}
	if p.DW[0] != 0 || p.DW[1] != 0 {
		t.Error("gradients not cleared after step")
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewRandom(1, 8, rng)
	g := NewGraph(false)
	out := g.Dropout(a, 0.5, rng)
	for i := range a.W {
		if out.W[i] != a.W[i] {
			t.Fatal("dropout should be identity at inference")
		}
	}
}
