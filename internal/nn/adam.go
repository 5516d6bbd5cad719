package nn

import (
	"errors"
	"math"
)

var errMomentShape = errors.New("nn: optimizer state does not match parameter shapes")

// Adam implements the Adam optimizer (Kingma & Ba, the optimizer used in
// Section 4.3) with global-norm gradient clipping. Graph.BackwardStep runs
// its steps.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // global gradient-norm clip (0 disables)
	t       int
	moments map[*Tensor]*moment
}

type moment struct{ m, v []float64 }

// NewAdam returns an optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, moments: map[*Tensor]*moment{}}
}

// State exports the optimizer state for checkpointing: the step count and
// the first/second moment vectors in params order. Parameters the optimizer
// has not yet seen export zero moments, matching what a step would lazily
// allocate.
func (a *Adam) State(params []*Tensor) (t int, m, v [][]float64) {
	m = make([][]float64, len(params))
	v = make([][]float64, len(params))
	for i, p := range params {
		mo := a.moments[p]
		if mo == nil {
			mo = &moment{m: make([]float64, p.Size()), v: make([]float64, p.Size())}
		}
		m[i] = append([]float64(nil), mo.m...)
		v[i] = append([]float64(nil), mo.v...)
	}
	return a.t, m, v
}

// Restore rebuilds the optimizer state exported by State against params (in
// the same order), so a resumed training run applies bit-identical updates.
func (a *Adam) Restore(params []*Tensor, t int, m, v [][]float64) error {
	if len(m) != len(params) || len(v) != len(params) {
		return errMomentShape
	}
	moments := make(map[*Tensor]*moment, len(params))
	for i, p := range params {
		if len(m[i]) != p.Size() || len(v[i]) != p.Size() {
			return errMomentShape
		}
		moments[p] = &moment{
			m: append([]float64(nil), m[i]...),
			v: append([]float64(nil), v[i]...),
		}
	}
	a.t = t
	a.moments = moments
	return nil
}

// begin counts a step and returns its coefficients, with a clip scale of 1.
func (a *Adam) begin() adamCoef {
	a.t++
	return adamCoef{
		scale: 1, lr: a.LR, eps: a.Eps,
		b1: a.Beta1, c1: 1 - a.Beta1, bc1: 1 - math.Pow(a.Beta1, float64(a.t)),
		b2: a.Beta2, c2: 1 - a.Beta2, bc2: 1 - math.Pow(a.Beta2, float64(a.t)),
	}
}

// momentOf returns p's moments, allocating them the first time.
func (a *Adam) momentOf(p *Tensor) *moment {
	mo := a.moments[p]
	if mo == nil {
		mo = &moment{m: make([]float64, p.Size()), v: make([]float64, p.Size())}
		a.moments[p] = mo
	}
	return mo
}

// clipScale is the global-norm clipping of the gradients of params: the
// update scales every gradient by Clip/‖g‖ as it reads it when the norm —
// the square root of one serial sum of squares over every element, params in
// order (sumSquares) — exceeds the clip, and by 1 otherwise. sum is the same
// squares summed in any order in at most adds additions; when it proves the
// norm within the clip (withinClip), the serial sum is not run. The scale is
// the serial sum's either way.
func (a *Adam) clipScale(params []*Tensor, sum float64, adds int) float64 {
	if withinClip(sum, adds, a.Clip) {
		return 1
	}
	var norm float64
	for _, p := range params {
		norm = sumSquares(norm, p.DW)
	}
	norm = math.Sqrt(norm)
	if norm > a.Clip {
		return a.Clip / norm
	}
	return 1
}

// withinClip reports whether every sum of the same non-negative terms as sum,
// in any order of at most adds additions, is below clip², so that its
// rounded square root is at most clip. Each addition of non-negative numbers
// is exact or off by at most a relative u = 2⁻⁵³ (a subnormal result is
// exact), so any two such sums S, T of the terms p are within
// Σp·(1±u)^adds, and S ≤ T·((1+u)/(1−u))^adds ≤ T·(1+3·adds·u) while
// adds·u ≤ 0.01. The test takes 1+4·adds·u, which with the roundings of its
// own two operations still bounds that, against clip² less a margin that
// covers its rounding — so clip² must be a normal number, whose rounding is
// relative too (a subnormal sum is exact: every partial sum is subnormal);
// an Inf or NaN sum, or a bound that overflows, proves nothing.
func withinClip(sum float64, adds int, clip float64) bool {
	const u = 0x1p-53
	cc := clip * clip
	if float64(adds)*u > 0.01 || !(cc >= 0x1p-1022) {
		return false
	}
	bound := sum * (1 + 4*float64(adds)*u)
	return bound < math.Inf(1) && bound <= cc*0.999999
}
