package nn

import (
	"math"
	"math/rand"
	"testing"
)

// serialClipScale is Adam's clip scale as one serial chain: the square root
// of Σ v², params in order, element by element, and Clip over it when it
// exceeds the clip.
func serialClipScale(params []*Tensor, clip float64) float64 {
	var norm float64
	for _, p := range params {
		for _, v := range p.DW {
			norm += float64(v * v)
		}
	}
	norm = math.Sqrt(norm)
	if norm > clip {
		return clip / norm
	}
	return 1
}

// lanesClipScale is the clip scale the way BackwardStep reaches it: the lane
// sums of squares per parameter, their sum, and clipScale, which runs the
// serial chain only when withinClip cannot decide.
func lanesClipScale(a *Adam, params []*Tensor) (scale float64, proved bool) {
	var sum float64
	adds := 1
	for _, p := range params {
		sum += sumSquaresLanes(p.DW)
		adds += len(p.DW) + sumSquaresLaneAdds
	}
	return a.clipScale(params, sum, adds), withinClip(sum, adds, a.Clip)
}

// TestClipScaleMatchesSerialChain: the clip scale with the lane-sum shortcut
// has the serial chain's bits for gradients whose norm is exactly at the
// clip, a few ulps below and above it, well inside and outside it; with
// Inf, NaN, −0, denormals, huge values whose squares overflow, and empty
// parameters among them; and at clips of 5, 1e-300 and 1e200 — under each
// body's lane sum. It also checks the shortcut is taken well inside the
// clip, so the serial chain is skipped there.
func TestClipScaleMatchesSerialChain(t *testing.T) {
	for name, ks := range kernelBodies() {
		t.Run(name, func(t *testing.T) {
			useKernels(t, ks)
			checkClipScale(t)
		})
	}
}

func checkClipScale(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	draw := func(sizes []int, scale float64) []*Tensor {
		var ps []*Tensor
		for _, n := range sizes {
			p := NewTensor(1, n)
			for i := range p.DW {
				p.DW[i] = rng.NormFloat64() * scale
			}
			ps = append(ps, p)
		}
		return ps
	}
	mul := func(ps []*Tensor, f float64) {
		for _, p := range ps {
			for i := range p.DW {
				p.DW[i] *= f
			}
		}
	}
	skipped := 0
	for _, clip := range []float64{5, 1e-300, 1e200} {
		for trial := 0; trial < 200; trial++ {
			sizes := []int{0, 1 + rng.Intn(40), rng.Intn(300), 7}
			ps := draw(sizes, 1)
			// Scale to the clip, then nudge by a few ulps either way, or
			// move well inside or outside it.
			mul(ps, clip/serialNorm(ps))
			switch trial % 8 {
			case 0:
			case 1, 2, 3:
				mul(ps, 1+float64(trial%4)*0x1p-52)
			case 4, 5:
				mul(ps, 1-float64(trial%3)*0x1p-52)
			case 6:
				mul(ps, 0.5)
			case 7:
				mul(ps, 3)
			}
			a := NewAdam(1e-3)
			a.Clip = clip
			specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, -2.5e-310, 1e200, math.MaxFloat64}
			if trial%5 == 4 {
				p := ps[1+rng.Intn(len(ps)-1)]
				if len(p.DW) > 0 {
					p.DW[rng.Intn(len(p.DW))] = specials[rng.Intn(len(specials))]
				}
			}
			want := serialClipScale(ps, clip)
			got, proved := lanesClipScale(a, ps)
			if !sameBits(got, want) {
				t.Fatalf("clip %g trial %d: scale %x, serial chain %x", clip, trial, math.Float64bits(got), math.Float64bits(want))
			}
			if proved {
				skipped++
				if want != 1 {
					t.Fatalf("clip %g trial %d: shortcut proved a norm within the clip whose serial scale is %g", clip, trial, want)
				}
			}
			// At clip 1e-300 clip² underflows and at 1e200 the squares
			// overflow: the shortcut decides nothing there.
			if clip == 5 && trial%8 == 6 && trial%5 != 4 && !proved {
				t.Errorf("clip %g trial %d: half the clip's norm did not take the shortcut", clip, trial)
			}
		}
	}
	if skipped == 0 {
		t.Error("the shortcut never skipped the serial chain")
	}
}

func serialNorm(ps []*Tensor) float64 {
	var s float64
	for _, p := range ps {
		s = sumSquares(s, p.DW)
	}
	return math.Sqrt(s)
}

// TestClipScaleEdges: exactly at the clip (one element equal to it), an
// all-zero gradient, denormal gradients whose squares underflow, and sums
// that overflow give the serial chain's scale.
func TestClipScaleEdges(t *testing.T) {
	for i, dw := range [][]float64{
		{5},
		{3, 4},
		{0, math.Copysign(0, -1)},
		{5e-324, 1e-310, -1e-320},
		{1e200, 1e200},
		{math.MaxFloat64},
		{math.Inf(1), 1},
		{math.NaN(), 1},
		{math.Nextafter(5, 6)},
		{math.Nextafter(5, 4)},
	} {
		p := &Tensor{W: make([]float64, len(dw)), DW: dw, Rows: 1, Cols: len(dw)}
		a := NewAdam(1e-3)
		a.Clip = 5
		want := serialClipScale([]*Tensor{p}, 5)
		got, _ := lanesClipScale(a, []*Tensor{p})
		if !sameBits(got, want) {
			t.Errorf("case %d %v: scale %x, serial chain %x", i, dw, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if !withinClip(24.9, 10, 5) || withinClip(25, 10, 5) || withinClip(math.Inf(1), 1, 5) ||
		withinClip(math.NaN(), 1, 5) || withinClip(1, 1e15, 5) || withinClip(0, 1, 1e-162) {
		t.Error("withinClip decides wrongly at its edges")
	}
}
