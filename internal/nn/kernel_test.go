package nn

import (
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

// kernelBodies lists the bodies this build and CPU can run: one tier-1 run on
// amd64 covers both, a purego or non-amd64 run the reference alone.
func kernelBodies() map[string]kernelSet {
	bodies := map[string]kernelSet{"go": goKernels}
	if ks, ok := asmKernels(); ok {
		bodies["avx2"] = ks
	}
	return bodies
}

// sameBits is equality of math.Float64bits, with every NaN equal to every
// other: which payload an add of two NaNs keeps depends on operand order,
// which neither the compiler nor the contract fixes.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
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

// checkKernels runs the three matrix kernels on one drawn case under the
// body in use and holds outputs, weight gradients and input gradients to the
// naive references, bit for bit.
func checkKernels(t testing.TB, seed int64, rows, in, n, off int) {
	t.Helper()
	c := drawKernelCase(rand.New(rand.NewSource(seed)), rows, in, n, off)

	dst := clone(c.dst)
	matMulRows(c.a, rows, in, c.w, n, dst, c.active)
	assertSameBits(t, "matMulRows out", dst, c.naiveMatMul())

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
}

// TestKernelBitParity sweeps every width 0..70 (all residues mod 4 and 8, so
// every vector/tail split), every depth 0..13, element offsets 0..3 and a few
// batch heights, under each body.
func TestKernelBitParity(t *testing.T) {
	for name, ks := range kernelBodies() {
		t.Run(name, func(t *testing.T) {
			useKernels(t, ks)
			seed := int64(0)
			for n := 0; n <= 70; n++ {
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
		})
	}
}

// TestKernelShapeChecks: a primitive refuses operands shorter than its first
// one — before any body could index past them — and accepts an empty one.
func TestKernelShapeChecks(t *testing.T) {
	long, short := make([]float64, 8), make([]float64, 7)
	for name, f := range map[string]func(){
		"axpy":     func() { axpy(long, short, 1) },
		"axpy4":    func() { axpy4(long, long, long, short, long, 1, 1, 1, 1) },
		"dotAxpy":  func() { dotAxpy(long, long, short, 1) },
		"dotAxpy2": func() { dotAxpy2(long, short, long, long, 1, 1) },
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
		axpy(nil, nil, 1)
		axpy4(nil, nil, nil, nil, nil, 1, 1, 1, 1)
		if s := dotAxpy(nil, nil, nil, 1); s != 0 {
			t.Errorf("%s: empty dotAxpy = %g", name, s)
		}
		if s0, s1 := dotAxpy2(nil, nil, nil, nil, 1, 1); s0 != 0 || s1 != 0 {
			t.Errorf("%s: empty dotAxpy2 = %g, %g", name, s0, s1)
		}
	}
}

// FuzzKernels lets the fuzzer pick the shape, alignment and data seed of
// TestKernelBitParity's check, under each body:
//
//	go test ./internal/nn -run '^$' -fuzz FuzzKernels -fuzztime 10s
func FuzzKernels(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(8), uint8(0))
	f.Add(int64(2), uint8(16), uint8(13), uint8(67), uint8(3))
	f.Add(int64(3), uint8(3), uint8(0), uint8(5), uint8(1))
	f.Add(int64(4), uint8(2), uint8(7), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, in, n, off uint8) {
		for _, ks := range kernelBodies() {
			useKernels(t, ks)
			checkKernels(t, seed, 1+int(rows%16), int(in%14), int(n%71), int(off%4))
		}
	})
}
