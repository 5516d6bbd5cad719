package nn

import (
	"errors"
	"math"
)

var errMomentShape = errors.New("nn: optimizer state does not match parameter shapes")

// Adam implements the Adam optimizer (Kingma & Ba, the optimizer used in
// Section 4.3) with global-norm gradient clipping.
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
// has not yet seen export zero moments, matching what Step would lazily
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

// Step applies one update to the parameters and clears their gradients.
func (a *Adam) Step(params []*Tensor) {
	a.t++
	c := adamCoef{
		scale: 1, lr: a.LR, eps: a.Eps,
		b1: a.Beta1, c1: 1 - a.Beta1, bc1: 1 - math.Pow(a.Beta1, float64(a.t)),
		b2: a.Beta2, c2: 1 - a.Beta2, bc2: 1 - math.Pow(a.Beta2, float64(a.t)),
	}
	// Global-norm clipping: the update scales every gradient by the clip
	// ratio as it reads it (a scale of 1 leaves it as it is).
	if a.Clip > 0 {
		var norm float64
		for _, p := range params {
			norm = sumSquares(norm, p.DW)
		}
		norm = math.Sqrt(norm)
		if norm > a.Clip {
			c.scale = a.Clip / norm
		}
	}
	for _, p := range params {
		mo := a.moments[p]
		if mo == nil {
			mo = &moment{m: make([]float64, p.Size()), v: make([]float64, p.Size())}
			a.moments[p] = mo
		}
		adamUpdate(p.W, p.DW, mo.m, mo.v, c)
	}
}
