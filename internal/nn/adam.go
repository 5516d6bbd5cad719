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
	// Global-norm clipping.
	if a.Clip > 0 {
		var norm float64
		for _, p := range params {
			norm = sumSquares(norm, p.DW)
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
