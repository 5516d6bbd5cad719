package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// useKernels switches the primitive body for the rest of the test.
func useKernels(t testing.TB, ks kernelSet) {
	old := kernels
	kernels = ks
	t.Cleanup(func() { kernels = old })
}

// kernelBodies lists every body this build and CPU can run: one tier-1 run on
// amd64 covers the reference, the AVX2 body and, where present, the AVX-512
// bodies; a purego or non-amd64 run the reference alone.
func kernelBodies() map[string]kernelSet {
	bodies := map[string]kernelSet{"go": goKernels}
	for name, ks := range asmKernels() {
		bodies[name] = ks
	}
	return bodies
}

func assertSameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// kernelCase is one randomly drawn problem: a rows×in left operand with
// zeros, −0 and denormals sprinkled in, an in×n weight matrix with NaN and
// ±Inf sprinkled in, an output gradient, a row mask, and non-zero starting
// contents for every accumulated buffer. Every slice starts off elements into
// its backing array, so it is 8-byte- but, for off in 1..3, not
// 32-byte-aligned.
type kernelCase struct {
	rows, in, n             int
	a, w, dOut, dst, wd, ad []float64
	active                  []bool
}

func drawKernelCase(rng *rand.Rand, rows, in, n, off int) kernelCase {
	fill := func(size int, special []float64, rate float64) []float64 {
		s := make([]float64, size+off)[off:]
		for i := range s {
			if rng.Float64() < rate {
				s[i] = special[rng.Intn(len(special))]
			} else {
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	negZero := math.Copysign(0, -1)
	left := []float64{0, negZero, 5e-324, -3e-310, 1e-308}
	weights := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1e300}
	c := kernelCase{
		rows: rows, in: in, n: n,
		a:    fill(rows*in, left, 0.3),
		w:    fill(in*n, weights, 0.02),
		dOut: fill(rows*n, left, 0.1),
		dst:  fill(rows*n, left, 0.1),
		wd:   fill(in*n, left, 0.1),
		ad:   fill(rows*in, left, 0.1),
	}
	if rng.Intn(3) > 0 {
		c.active = make([]bool, rows)
		for i := range c.active {
			c.active[i] = rng.Intn(4) > 0
		}
	}
	return c
}

func (c kernelCase) on(i int) bool { return c.active == nil || c.active[i] }

func clone(s []float64) []float64 { return append([]float64(nil), s...) }

// The naive references: the summation-order contract of kernel.go written as
// plain loops, element by element.

func (c kernelCase) naiveMatMul() []float64 {
	out := clone(c.dst)
	for i := 0; i < c.rows; i++ {
		for j := 0; c.on(i) && j < c.n; j++ {
			for k := 0; k < c.in; k++ {
				if av := c.a[i*c.in+k]; av != 0 {
					out[i*c.n+j] += float64(av * c.w[k*c.n+j])
				}
			}
		}
	}
	return out
}

func (c kernelCase) naiveBackBatch() (wd, ad []float64) {
	if c.rows == 1 && c.on(0) { // a one-row batch is a single-row product
		return c.naiveBackRows()
	}
	return c.naiveBackLanes()
}

// naiveBackLanes is the batched backward at any height: the input gradient
// in gradX's four lanes, the weight gradient over active rows ascending.
func (c kernelCase) naiveBackLanes() (wd, ad []float64) {
	wd, ad = clone(c.wd), clone(c.ad)
	for k := 0; k < c.in; k++ {
		for i := 0; i < c.rows; i++ {
			if !c.on(i) {
				continue
			}
			var lane [4]float64
			for j := 0; j < c.n; j++ {
				l := j % 4
				if j >= c.n-c.n%4 {
					l = 0
				}
				d := c.dOut[i*c.n+j]
				lane[l] += float64(d * c.w[k*c.n+j])
				wd[k*c.n+j] += float64(d * c.a[i*c.in+k])
			}
			ad[i*c.in+k] += (lane[0] + lane[1]) + (lane[2] + lane[3])
		}
	}
	return wd, ad
}

// naiveBackRows is the single-row backward, row after row (backMatMul's order).
func (c kernelCase) naiveBackRows() (wd, ad []float64) {
	wd, ad = clone(c.wd), clone(c.ad)
	for i := 0; i < c.rows; i++ {
		for k := 0; k < c.in; k++ {
			var acc float64
			for j := 0; j < c.n; j++ {
				d := c.dOut[i*c.n+j]
				acc += float64(d * c.w[k*c.n+j])
				wd[k*c.n+j] += float64(d * c.a[i*c.in+k])
			}
			ad[i*c.in+k] += acc
		}
	}
	return wd, ad
}

// naiveBackAttend is the attention-score backward as a per-row loop:
// scores = q·hᵀ with q a width-n row (dOut's first), h the in×n weights and
// the score gradient a's first in elements, zero ones skipped.
func (c kernelCase) naiveBackAttend() (qd, hd []float64) {
	qd, hd = clone(c.dst[:c.n]), clone(c.wd)
	for i, od := range c.a[:c.in] {
		for j := 0; od != 0 && j < c.n; j++ {
			qd[j] += float64(od * c.w[i*c.n+j])
			hd[i*c.n+j] += float64(od * c.dOut[j])
		}
	}
	return qd, hd
}

// checkKernels runs the matrix kernels on one drawn case under the body in
// use and holds outputs, weight gradients and input gradients to the naive
// references, bit for bit. The forward product is matvec once per active row.
func checkKernels(t testing.TB, seed int64, rows, in, n, off int) {
	t.Helper()
	checkCase(t, drawKernelCase(rand.New(rand.NewSource(seed)), rows, in, n, off))
}

func checkCase(t testing.TB, c kernelCase) {
	t.Helper()
	rows, in, n := c.rows, c.in, c.n
	dst := clone(c.dst)
	matMulRows(c.a, 0, rows, in, c.w, n, dst, c.active)
	assertSameBits(t, "matMulRows (matvec) out", dst, c.naiveMatMul())

	wd, ad := clone(c.wd), clone(c.ad)
	backMatMulRows(c.a, ad, rows, in, c.w, wd, n, c.dOut, c.active)
	wantWd, wantAd := c.naiveBackBatch()
	assertSameBits(t, "backMatMulRows dW", wd, wantWd)
	assertSameBits(t, "backMatMulRows dA", ad, wantAd)

	wd, ad = clone(c.wd), clone(c.ad)
	for i := 0; i < rows; i++ {
		backRowMatMul(c.a[i*in:(i+1)*in], ad[i*in:(i+1)*in], c.w, wd, c.dOut[i*n:(i+1)*n])
	}
	wantWd, wantAd = c.naiveBackRows()
	assertSameBits(t, "backRowMatMul dW", wd, wantWd)
	assertSameBits(t, "backRowMatMul dA", ad, wantAd)

	qd, hd := clone(c.dst[:n]), clone(c.wd)
	backAttendDot(c.dOut[:n], qd, c.w, hd, c.a[:in])
	wantQd, wantHd := c.naiveBackAttend()
	assertSameBits(t, "backAttendDot dq", qd, wantQd)
	assertSameBits(t, "backAttendDot dH", hd, wantHd)

	checkParts(t, c)
}

// checkParts holds the pieces a split op runs to the whole: matMulRows over
// two row ranges; backMatMulPart over two parts, upper part first, to the
// batched backward at any height; and gradW over rows [k0, k1) of the weight
// gradient — wd[k0·n:], a[k0:], k1−k0 of them — to those rows of the whole
// product, leaving the others as they were. The cuts are the ends, the
// middle and a draw from the case, so the sweeps cover every position.
func checkParts(t testing.TB, c kernelCase) {
	t.Helper()
	rows, in, n := c.rows, c.in, c.n
	rng := rand.New(rand.NewSource(int64(rows*1000 + in*100 + n)))
	wantDst := c.naiveMatMul()
	wantWd, wantAd := c.naiveBackLanes()
	for _, rmid := range []int{0, rows / 2, rows, rng.Intn(rows + 1)} {
		dst := clone(c.dst)
		matMulRows(c.a, rmid, rows, in, c.w, n, dst, c.active)
		matMulRows(c.a, 0, rmid, in, c.w, n, dst, c.active)
		assertSameBits(t, "matMulRows in two parts", dst, wantDst)

		kmid := rng.Intn(in + 1)
		wd, ad := clone(c.wd), clone(c.ad)
		backMatMulPart(c.a, ad, rows, in, c.w, wd, n, c.dOut, c.active, rmid, rows, kmid, in)
		backMatMulPart(c.a, ad, rows, in, c.w, wd, n, c.dOut, c.active, 0, rmid, 0, kmid)
		assertSameBits(t, "backMatMulPart dW in two parts", wd, wantWd)
		assertSameBits(t, "backMatMulPart dA in two parts", ad, wantAd)
	}

	whole := clone(c.wd)
	gradW(whole, c.a, c.dOut, rows, in, in, n)
	for _, k0 := range []int{0, in / 2, in, rng.Intn(in + 1)} {
		k1 := k0 + rng.Intn(in-k0+1)
		part := clone(c.wd)
		gradW(part[k0*n:], c.a[k0:], c.dOut, rows, k1-k0, in, n)
		assertSameBits(t, fmt.Sprintf("gradW rows [%d, %d) of %d", k0, k1, in), part[k0*n:k1*n], whole[k0*n:k1*n])
		assertSameBits(t, "gradW rows below k0", part[:k0*n], c.wd[:k0*n])
		assertSameBits(t, "gradW rows from k1", part[k1*n:], c.wd[k1*n:])
	}
}

// kernelWidths are the output widths the parity sweep covers: every n in
// 0..100 — each residue mod 4, 8 and 32, so every split of matvec's 32-wide
// strips, 8-wide strips and scalar tail — and the model-sized 192, 400, 437.
var kernelWidths = func() []int {
	ws := make([]int, 0, 104)
	for n := 0; n <= 100; n++ {
		ws = append(ws, n)
	}
	return append(ws, 192, 400, 437)
}()

// batchWidths are the widths of the batch sweep: each n mod 4 tail of gradX,
// each n mod 8 tail and 8-wide strip count of gradW, a 32-wide strip with
// and without either after it, and the output projection's 230.
var batchWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 43, 48, 61, 230}

// batchMasks are the row masks of the batch sweep: every row (nil), no row,
// one row, an odd count with an inactive run at both ends, and every third
// row off — runs and lone rows between gaps.
func batchMasks(rows int) [][]bool {
	mask := func(on func(i int) bool) []bool {
		m := make([]bool, rows)
		for i := range m {
			m[i] = on(i)
		}
		return m
	}
	hi := rows - 1
	if (hi-1)%2 == 0 {
		hi--
	}
	return [][]bool{
		nil,
		mask(func(int) bool { return false }),
		mask(func(i int) bool { return i == rows/2 }),
		mask(func(i int) bool { return i >= 1 && i < hi }),
		mask(func(i int) bool { return i%3 != 1 }),
	}
}

// TestKernelBitParity sweeps every width of kernelWidths, every depth 0..13,
// element offsets 0..3 and a few batch heights; then, for gradX's row pairs
// and gradW's row runs, batches of 2, 3, 16 and 17 rows under every mask of
// batchMasks at every depth 0..13 (gradX's k tails) and width of
// batchWidths — each under each body, and each case also in the parts a
// split op runs (checkParts), gradW's k ranges among them.
func TestKernelBitParity(t *testing.T) {
	for name, ks := range kernelBodies() {
		t.Run(name, func(t *testing.T) {
			useKernels(t, ks)
			seed := int64(0)
			for _, n := range kernelWidths {
				for in := 0; in <= 13; in++ {
					seed++
					checkKernels(t, seed, 1+int(seed%5), in, n, int(seed%4))
				}
			}
			for _, rows := range []int{1, 2, 7, 16} {
				for off := 0; off < 4; off++ {
					seed++
					checkKernels(t, seed, rows, 13, 67, off)
				}
			}
			for _, rows := range []int{2, 3, 16, 17} {
				for in := 0; in <= 13; in++ {
					for _, n := range batchWidths {
						for _, active := range batchMasks(rows) {
							seed++
							c := drawKernelCase(rand.New(rand.NewSource(seed)), rows, in, n, int(seed%4))
							c.active = active
							checkCase(t, c)
						}
					}
				}
			}
		})
	}
}

// elementwiseSpecials are the inputs at which math.Exp and math.tanh change
// branch, or that no body may get wrong: signed zeros, infinities, NaN,
// denormals; the [−708, 709] edges of the vector exp (and the −x and x−m
// they become); the band [709.44, 709.78] where math.Exp already returns
// +Inf from its exponent check rather than its overflow test; the
// denormal-result range below −708; and tanh's 0.625 and MAXLOG/2 branch
// points, with their neighbours.
var elementwiseSpecials = func() []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	s := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-200, math.MaxFloat64, -math.MaxFloat64,
		-708, down(-708), up(-708), 709, up(709), down(709), 708, -709,
		-708.4, -708.39641853226408, -745.1332191019411, -745.2, -746, -1e4,
		709.436, 709.44, 709.5, 709.78, 709.782712893384, up(709.782712893384), 710,
		0.625, down(0.625), up(0.625), halfMaxLog, down(halfMaxLog), up(halfMaxLog), 22.0074, 88.03,
	}
	for _, v := range s[:len(s):len(s)] {
		s = append(s, -v)
	}
	return s
}()

// drawElementwise draws n inputs at element offset off (so, for off > 0, not
// 32-byte-aligned): special values, random bit patterns, values of random
// sign and magnitude from 1e-300 to 800, the +Inf band, and the range where
// activations live.
func drawElementwise(rng *rand.Rand, n, off int) []float64 {
	x := make([]float64, n+off)[off:]
	for i := range x {
		switch rng.Intn(6) {
		case 0:
			x[i] = elementwiseSpecials[rng.Intn(len(elementwiseSpecials))]
		case 1:
			x[i] = math.Float64frombits(rng.Uint64())
		case 2:
			x[i] = math.Pow(10, -300+rng.Float64()*(300+math.Log10(800)))
			if rng.Intn(2) == 0 {
				x[i] = -x[i]
			}
		case 3:
			x[i] = 709.44 + rng.Float64()*0.34
		default:
			x[i] = rng.NormFloat64() * 8
		}
	}
	return x
}

// The references of the elementwise primitives: the scalar loops they
// replaced, verbatim.

func naiveSigmoid(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

func naiveTanh(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Tanh(v)
	}
	return out
}

func naiveExpShift(x []float64, m float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Exp(v - m)
	}
	return out
}

// checkElementwise runs the three activations on n drawn inputs under the
// body in use, into a fresh buffer and in place, and holds them to the
// references bit for bit.
func checkElementwise(t testing.TB, seed int64, n, off int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := drawElementwise(rng, n, off)
	m := 0.0
	if rng.Intn(2) == 0 {
		m = rng.NormFloat64() * 4
	}
	for _, c := range []struct {
		name string
		run  func(dst, x []float64)
		want []float64
	}{
		{"sigmoid", sigmoid, naiveSigmoid(x)},
		{"tanh", tanh, naiveTanh(x)},
		{"expShift", func(dst, x []float64) { expShift(dst, x, m) }, naiveExpShift(x, m)},
	} {
		dst := make([]float64, n+off)[off:]
		c.run(dst, x)
		assertSameBits(t, c.name, dst, c.want)
		inPlace := clone(x)
		c.run(inPlace, inPlace)
		assertSameBits(t, c.name+" in place", inPlace, c.want)
	}
}

// TestElementwiseBitParity sweeps lengths 0..70 (every vector/tail split and
// fallback group position) at offsets 0..3, and a long run of every special
// value, under each body.
func TestElementwiseBitParity(t *testing.T) {
	for name, ks := range kernelBodies() {
		t.Run(name, func(t *testing.T) {
			useKernels(t, ks)
			for n := 0; n <= 70; n++ {
				for off := 0; off < 4; off++ {
					checkElementwise(t, int64(100*n+off), n, off)
				}
			}
			x := clone(elementwiseSpecials)
			assertSameBits(t, "sigmoid specials", applied(sigmoid, x), naiveSigmoid(x))
			assertSameBits(t, "tanh specials", applied(tanh, x), naiveTanh(x))
			for _, m := range []float64{0, 1, -1, 709, -708, math.Inf(1), math.NaN()} {
				got := applied(func(dst, x []float64) { expShift(dst, x, m) }, x)
				assertSameBits(t, "expShift specials", got, naiveExpShift(x, m))
			}
		})
	}
}

func applied(f func(dst, x []float64), x []float64) []float64 {
	dst := make([]float64, len(x))
	f(dst, x)
	return dst
}

// naiveAdamStep is Adam.Step before the kernel family, verbatim: the clip
// pass over every gradient, then the per-element update.
func naiveAdamStep(a *Adam, params []*Tensor) {
	a.t++
	if a.Clip > 0 {
		var norm float64
		for _, p := range params {
			for _, v := range p.DW {
				norm += float64(v * v)
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.Clip {
			scale := a.Clip / norm
			for _, p := range params {
				for i := range p.DW {
					p.DW[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		mo := a.moments[p]
		if mo == nil {
			mo = &moment{m: make([]float64, p.Size()), v: make([]float64, p.Size())}
			a.moments[p] = mo
		}
		for i := range p.W {
			d := p.DW[i]
			mo.m[i] = a.Beta1*mo.m[i] + (1-a.Beta1)*d
			mo.v[i] = a.Beta2*mo.v[i] + (1-a.Beta2)*d*d
			mHat := mo.m[i] / bc1
			vHat := mo.v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			p.DW[i] = 0
		}
	}
}

// checkAdam runs steps Adam steps on parameters of sizes 0..9 and 67 under
// the body in use, beside the verbatim old Step on a copy, with gradients
// that are zero, tiny (denormal) or huge (1e150, so the norm overflows to
// +Inf) in turn, and holds weights, moments and cleared gradients equal bit
// for bit after every step.
func checkAdam(t testing.TB, seed int64, steps int, clip float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var got, want []*Tensor
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 67} {
		p := NewRandom(1, n, rng)
		got = append(got, p)
		want = append(want, &Tensor{W: clone(p.W), DW: make([]float64, n), Rows: 1, Cols: n})
	}
	opt, ref := NewAdam(1e-2), NewAdam(1e-2)
	opt.Clip, ref.Clip = clip, clip
	for s := 0; s < steps; s++ {
		for i, p := range got {
			for j := range p.DW {
				var d float64
				switch (s + j) % 5 {
				case 0:
					d = 0
				case 1:
					d = rng.NormFloat64() * 5e-320
				case 2:
					d = rng.NormFloat64() * 1e150
				default:
					d = rng.NormFloat64()
				}
				if s%7 == 3 && j == 0 {
					d = math.Copysign(0, -1)
				}
				p.DW[j], want[i].DW[j] = d, d
			}
		}
		opt.Step(got)
		naiveAdamStep(ref, want)
		for i := range got {
			assertSameBits(t, "adam W", got[i].W, want[i].W)
			assertSameBits(t, "adam DW", got[i].DW, want[i].DW)
			assertSameBits(t, "adam m", opt.moments[got[i]].m, ref.moments[want[i]].m)
			assertSameBits(t, "adam v", opt.moments[got[i]].v, ref.moments[want[i]].v)
		}
	}
}

// TestAdamBitParity: 200 steps, clipping on and off, under each body.
func TestAdamBitParity(t *testing.T) {
	for name, ks := range kernelBodies() {
		t.Run(name, func(t *testing.T) {
			useKernels(t, ks)
			checkAdam(t, 1, 200, 5)
			checkAdam(t, 2, 200, 0)
		})
	}
}

// BenchmarkElementwise times each elementwise primitive at the size it has in
// the Unit parser (H = 48: three sigmoid gates, the candidate and cell tanh;
// a 254-token vocabulary softmax; ~112k weights under Adam), per body:
//
//	go test ./internal/nn -run '^$' -bench Elementwise
func BenchmarkElementwise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gates, cells, logits := drawGates(rng, 144), drawGates(rng, 96), drawGates(rng, 254)
	w, dw := make([]float64, 112_000), make([]float64, 112_000)
	m, v := make([]float64, len(w)), make([]float64, len(w))
	c := adamCoef{scale: 1, b1: 0.9, c1: 0.1, b2: 0.999, c2: 0.001, bc1: 0.5, bc2: 0.3, lr: 1e-3, eps: 1e-8}
	for name, ks := range kernelBodies() {
		b.Run("sigmoid144/"+name, func(b *testing.B) {
			useKernels(b, ks)
			dst := make([]float64, len(gates))
			for i := 0; i < b.N; i++ {
				sigmoid(dst, gates)
			}
		})
		b.Run("tanh96/"+name, func(b *testing.B) {
			useKernels(b, ks)
			dst := make([]float64, len(cells))
			for i := 0; i < b.N; i++ {
				tanh(dst, cells)
			}
		})
		b.Run("softmax254/"+name, func(b *testing.B) {
			useKernels(b, ks)
			dst := make([]float64, len(logits))
			for i := 0; i < b.N; i++ {
				softmaxInto(logits, dst)
			}
		})
		b.Run("adam112k/"+name, func(b *testing.B) {
			useKernels(b, ks)
			for i := 0; i < b.N; i++ {
				adamUpdate(w, dw, m, v, c)
			}
		})
	}
}

// BenchmarkMatvec times the forward product of one row at the shapes it has
// in the Unit parser (E = 32, H = 48: the LSTM input and recurrent
// projections k × 4H, attention H → 2H, combine 3H → H, and the output
// projection onto the benchmark assistant's 230 target tokens), per body, in
// multiply-adds per ns:
//
//	go test ./internal/nn -run '^$' -bench Matvec
func BenchmarkMatvec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ k, n int }{{32, 192}, {48, 192}, {128, 192}, {48, 96}, {144, 48}, {48, 230}} {
		x, w, dst := drawGates(rng, s.k), drawGates(rng, s.k*s.n), make([]float64, s.n)
		for name, ks := range kernelBodies() {
			b.Run(fmt.Sprintf("%dx%d/%s", s.k, s.n, name), func(b *testing.B) {
				useKernels(b, ks)
				for i := 0; i < b.N; i++ {
					matMulRows(x, 0, 1, s.k, w, s.n, dst, nil)
				}
				b.ReportMetric(float64(s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
			})
		}
	}
}

// BenchmarkBackMatMul times the backward of a B=16 product at the training
// shapes of BenchmarkMatvec — input gradient and weight gradient, every row
// active — per body, in multiply-adds per ns (two per weight per row):
//
//	go test ./internal/nn -run '^$' -bench BackMatMul
func BenchmarkBackMatMul(b *testing.B) {
	const rows = 16
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ k, n int }{{32, 192}, {48, 192}, {128, 192}, {144, 48}, {48, 230}} {
		a, w, dOut := drawGates(rng, rows*s.k), drawGates(rng, s.k*s.n), drawGates(rng, rows*s.n)
		ad, wd := make([]float64, rows*s.k), make([]float64, s.k*s.n)
		for name, ks := range kernelBodies() {
			b.Run(fmt.Sprintf("%dx%d/%s", s.k, s.n, name), func(b *testing.B) {
				useKernels(b, ks)
				for i := 0; i < b.N; i++ {
					backMatMulRows(a, ad, rows, s.k, w, wd, s.n, dOut, nil)
				}
				b.ReportMetric(2*rows*float64(s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
			})
		}
	}
}

// drawGates draws n pre-activations of the spread an LSTM's gates have.
func drawGates(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 2
	}
	return x
}

// TestKernelShapeChecks: a primitive refuses operands shorter than its first
// one, matvec fewer than len(x)·len(dst) weights, gradX fewer than
// len(ad0)·len(d0) and gradW any operand short of its rows × kn-of-in × n
// shape, or more weight-gradient rows than a has columns — before any body
// could index past them — and accepts an empty one, and an a that ends at
// its last row's kn-th element.
func TestKernelShapeChecks(t *testing.T) {
	long, short := make([]float64, 8), make([]float64, 7)
	w := func(n int) []float64 { return make([]float64, n) }
	for name, f := range map[string]func(){
		"matvec":    func() { matvec(long, short, w(55)) },
		"gradX ad1": func() { gradX(long, short, long, long, w(64)) },
		"gradX d1":  func() { gradX(long, long, long, short, w(64)) },
		"gradX w":   func() { gradX(long, nil, long, long, w(63)) },
		"gradW wd":  func() { gradW(w(55), long, long, 1, 8, 8, 7) },
		"gradW a":   func() { gradW(w(56), short, w(14), 2, 4, 4, 7) },
		"gradW d":   func() { gradW(w(56), long, w(13), 2, 4, 4, 7) },
		"gradW kn":  func() { gradW(w(63), long, w(14), 2, 5, 4, 7) },
		"sigmoid":   func() { sigmoid(long, short) },
		"tanh":      func() { tanh(long, short) },
		"expShift":  func() { expShift(long, short, 0) },
		"adam":      func() { adamUpdate(long, long, short, long, adamCoef{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a short operand", name)
				}
			}()
			f()
		}()
	}
	for name, ks := range kernelBodies() {
		useKernels(t, ks)
		matvec(nil, long, nil)
		matvec(short, nil, nil)
		gradX(nil, nil, long, long, nil)
		wd := w(28)
		gradW(wd, nil, nil, 0, 4, 4, 7)
		gradW(nil, nil, w(14), 2, 0, 0, 7)
		gradW(nil, long, w(14), 2, 0, 4, 7)
		gradW(nil, long, nil, 2, 4, 4, 0)
		assertSameBits(t, name+": gradW over no rows", wd, w(28))
		gradW(w(21), short, w(14), 2, 3, 4, 7)
		// No j is still a sum: +0, which turns a −0 into +0.
		negZero := math.Copysign(0, -1)
		ad0, ad1 := []float64{negZero, 1}, []float64{negZero, 2}
		gradX(ad0, ad1, nil, nil, nil)
		assertSameBits(t, name+": gradX ad0 over n = 0", ad0, []float64{0, 1})
		assertSameBits(t, name+": gradX ad1 over n = 0", ad1, []float64{0, 2})
		sigmoid(nil, nil)
		tanh(nil, nil)
		expShift(nil, nil, 0)
		adamUpdate(nil, nil, nil, nil, adamCoef{})
	}
}

// FuzzKernels lets the fuzzer pick the shape — widths 0..255, so every
// strip/tail split of matvec and gradW and every lane tail of gradX; 1..17
// rows, so gradX's pairs and lone row and gradW's runs under the drawn mask;
// depths 0..13, so gradX's k tails and gradW's k ranges — alignment and data
// seed of TestKernelBitParity's and TestElementwiseBitParity's checks, and a
// few Adam steps, under each body:
//
//	go test ./internal/nn -run '^$' -fuzz FuzzKernels -fuzztime 10s
func FuzzKernels(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(8), uint8(0))
	f.Add(int64(2), uint8(16), uint8(13), uint8(67), uint8(3))
	f.Add(int64(3), uint8(3), uint8(0), uint8(5), uint8(1))
	f.Add(int64(4), uint8(2), uint8(7), uint8(0), uint8(2))
	f.Add(int64(5), uint8(4), uint8(9), uint8(199), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows, in, n, off uint8) {
		for _, ks := range kernelBodies() {
			useKernels(t, ks)
			checkKernels(t, seed, 1+int(rows%17), int(in%14), int(n), int(off%4))
			checkElementwise(t, seed, int(n), int(off%4))
			checkAdam(t, seed, 3, float64(rows%3))
		}
	})
}
