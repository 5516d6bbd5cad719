package nn

import "math"

// This file is the only place in the package where a multiply-add loop lives,
// and with that the definition of *the* summation order every matrix product,
// attention sum and their gradients follow:
//
//   - a forward product (matvec) accumulates each output element over k
//     ascending, and skips a k whose left-operand element is zero (±0) — so a
//     zero input never touches a NaN or infinite weight;
//   - a weight gradient (gradW) accumulates each element over batch rows
//     ascending, without skipping zeros — a run of one-row products through
//     one weight is such rows too, summed by one gradW (reduce.go);
//   - the input gradient of a batched product (gradX) sums over j in four
//     lane accumulators, lane l taking j ≡ l (mod 4) ascending and lane 0 the
//     n mod 4 tail, combined as (l0+l1)+(l2+l3);
//   - the input gradient of a single-row product — a one-row batch is one —
//     (gradXRow) is one serial accumulator per k, starting at +0, over j
//     ascending, nothing skipped, then added to xd[k]; the attention score
//     (dot4, dot) is the same chain.
//
// Every product is rounded before it is added: no fused multiply-add, in any
// body. The multiply-add primitives of the first four rules — matvec and
// matvecRows (matvec over a block of rows), gradW, gradX, gradXRow — each
// called once per matrix, have a pure-Go reference body here, and assembly
// bodies in kernel_amd64.s that issue, per output element, the identical
// sequence of IEEE multiplies and adds, so the bodies agree bit for bit.
// matvec and gradW hold a 32-wide strip of their output in registers for the
// whole k (row) loop; matvecRows' AVX-512 body holds that strip for four rows
// at once and loads each weight strip once for the four, a row's ±0 x[k]
// masking its add off (it has no AVX2 body: there, and for the rows after
// the last block of four, matvec runs row by row); gradX holds the lanes of
// two rows × four k for the whole j loop; gradXRow's AVX-512 body multiplies
// eight weight rows by eight d[j] at a time and transposes the products in
// registers, so one lane carries one k's chain, j ascending, through the
// whole row (it has no AVX2 body: there the reference runs, four chains side
// by side). The AVX-512 bodies run where CPUID reports AVX512F and the OS
// saves the ZMM state, the AVX2 ones elsewhere on amd64, the reference body
// under purego or on another architecture. The float64() conversions in the
// reference bodies are what forbids the compiler from fusing on platforms
// where it otherwise would.
//
// Everything else in the file builds the package's matrix kernels out of
// those primitives; the single-row and batched forms share one loop nest each
// way, so "batched equals row by row" holds by construction.
//
// A split step (Graph.ResetStep) cuts its batch once, into the rows below
// the cut and the rest, and every phase of the step runs in those two parts,
// the upper one offered to a helper core (team.go). Every split keeps each
// element's summation order above, because the parts write disjoint
// elements and each element is computed whole by one part:
//
//   - the forward of every op runs over the part's rows: the products
//     (matMulRows, with the affine's bias add), the LSTM step (both products
//     of a row, then its cell), the attention, the softmax, the elementwise
//     ops, dropout's mask applied (the mask is drawn when Dropout is called,
//     serially, in order), the concatenation, the packed memory (block b is
//     row b's) and the pointer loss — the embedding lookups are copied when
//     they are called;
//   - the backward of every op runs over the part's rows, ops in reverse:
//     the products' input gradients (gradXRows, gradX by the part's
//     active-row pairs — a part left with a lone row calls gradX with a nil
//     ad1, in lane order, never backRowMatMul's serial chain), the LSTM gate
//     gradients, the attention (row r owns memory block r), the softmax, the
//     pointer loss and the rest, each writing only the gradients of its
//     input rows;
//   - what sums over rows — the weights' gradients (gradW, over each
//     product's active rows ascending), the biases' (gradW with a column of
//     ones) and the embedding tables' scatter-adds — runs after the
//     backward, each parameter's in the order the backward met its ops, on
//     one part, the parameters shared out by cost (reduce.go); the clip's
//     sum of squares (sumSquaresLanes) and Adam then run per parameter on
//     the part that reduced it.
//
// A split step's outputs come from the arena uncleared, and each part
// clears what of its own rows the forward accumulates into first
// (Graph.newOut, zeroRows).
//
// The elementwise primitives (sigmoid, tanh, expShift for softmax, adam) are
// the only place in the package that takes an exponential or a tanh or does
// Adam's arithmetic. Their contract is their reference body: 1/(1+exp(−x)),
// tanhOf(x), exp(x−m), and Adam's update in the order it has always used.
// exp is the package's own: math.Exp's FMA code path (math/exp_amd64.s) in
// Go, so it gives the same bits on every host, with or without FMA hardware
// (math.FMA is exact in software too), and equals math.Exp wherever math.Exp
// takes that path; tanhOf is math.tanh's three branches over it. The
// assembly bodies meet the contract lane by lane:
//
//   - exp four lanes wide, with its constants, fusing exactly where it
//     fuses. Lanes outside [−708, 709], where the scalar code takes its
//     overflow, underflow and denormal branches, and NaN lanes are left to
//     it: the body stops at their group of four and the reference body takes
//     it;
//   - tanh computes tanhOf's three branches for every lane and blends them,
//     keeping ±0 as it came;
//   - adam rounds every product and uses the correctly rounded divide and
//     square root, in the reference's order; it skips the divide by bc1 once
//     bc1 is exactly 1.0, which changes no bit: x/1 is x.
//
// So the activation bodies equal the reference by construction, and run
// wherever CPUID reports AVX2 and FMA. Trained weights are bit-identical run
// to run and from one amd64 host to another, whichever body runs.
//
// NaN payloads are outside the contract: which payload survives an operation
// on two NaNs depends on operand order, which neither body fixes, so "bit for
// bit" treats every NaN as one value, here and in the parity tests.

// kernelSet is one body of the primitive family.
type kernelSet struct {
	// matvec: dst[j] += Σ_k x[k]·w[k·len(dst)+j], k ascending, skipping ±0
	// x[k]; dst must not overlap x or w.
	matvec func(dst, x, w []float64)
	// matvecRows: matvec of each of rows rows, dst[r·n+j] += Σ_k
	// x[r·in+k]·w[k·n+j], k ascending, skipping ±0 x[r·in+k] row by row;
	// dst must not overlap x or w. A body loads each weight strip once for a
	// block of rows; nil runs matvec row by row.
	matvecRows func(dst, x, w []float64, rows, in, n int)
	// gradW: wd[k·n+j] += Σ_r a[r·in+k]·d[r·n+j] for k < in, r ascending,
	// no zero skipped.
	gradW func(wd, a, d []float64, rows, in, n int)
	// gradX: ad0[k] += laneDot(d0, w_k) and ad1[k] += laneDot(d1, w_k) for
	// every k < len(ad0), w_k = w[k·n:(k+1)·n], n = len(d0). A nil ad1 drops
	// row 1's sums: a lone row passes itself as d1.
	gradX func(ad0, ad1, d0, d1, w []float64)
	// gradXRow: xd[k] += dot(d, w_k) for every k < len(xd), w_k =
	// w[k·n:(k+1)·n], n = len(d).
	gradXRow func(xd, d, w []float64)

	// sigmoid: dst[j] = 1/(1+exp(−x[j])).
	sigmoid func(dst, x []float64)
	// tanh: dst[j] = tanh(x[j]).
	tanh func(dst, x []float64)
	// expShift: dst[j] = exp(x[j]−m).
	expShift func(dst, x []float64, m float64)
	// adam: one Adam update of the weights w from their gradient dw, which it
	// clears, and their moments m, v.
	adam func(w, dw, m, v []float64, c adamCoef)
	// sumSquares: Σ x[j]² in some order of at most len(x) +
	// sumSquaresLaneAdds − 1 additions along any element's path — the
	// clip's bound (withinClip), which takes any order, not a chain to match.
	sumSquares func(x []float64) float64
}

// adamCoef holds the scalars of one Adam step: the clip scale every gradient
// is multiplied by first (1 when the norm is within the clip), the moment
// decays b1, b2 with their complements c1 = 1−b1, c2 = 1−b2, the bias
// corrections bc1, bc2, the learning rate and epsilon. The assembly reads it
// field by field, so the order is fixed.
type adamCoef struct {
	scale, b1, c1, b2, c2, bc1, bc2, lr, eps float64
}

// goKernels is the reference body; kernels is the body in use, replaced once
// at init where the CPU has an assembly body (kernel_amd64.go).
var (
	goKernels = kernelSet{
		matvec: matvecGo, gradW: gradWGo, gradX: gradXGo, gradXRow: gradXRowGo,
		sigmoid: sigmoidGo, tanh: tanhGo, expShift: expShiftGo, adam: adamGo,
		sumSquares: sumSquaresLanesGo,
	}
	kernels = goKernels
)

// The wrappers own the shape checks, so a body — the assembly in particular —
// may index every operand within its shape without looking, and is never
// entered with nothing to do (gradX over n = 0 still has work: its sums are
// +0, which turns a −0 in ad0 or ad1 into +0).

func matvec(dst, x, w []float64) {
	if len(w) < len(x)*len(dst) {
		panic("nn: matvec shape mismatch")
	}
	if len(dst) == 0 || len(x) == 0 {
		return
	}
	kernels.matvec(dst, x, w)
}

func matvecRows(dst, x, w []float64, rows, in, n int) {
	if rows < 0 || in < 0 || n < 0 || len(dst) < rows*n || len(x) < rows*in || len(w) < in*n {
		panic("nn: matvecRows shape mismatch")
	}
	if rows == 0 || in == 0 || n == 0 {
		return
	}
	if kernels.matvecRows == nil || rows == 1 {
		for r := 0; r < rows; r++ {
			kernels.matvec(dst[r*n:(r+1)*n], x[r*in:(r+1)*in], w)
		}
		return
	}
	kernels.matvecRows(dst, x, w, rows, in, n)
}

func gradX(ad0, ad1, d0, d1, w []float64) {
	in, n := len(ad0), len(d0)
	if (ad1 != nil && len(ad1) < in) || len(d1) < n || len(w) < in*n {
		panic("nn: gradX shape mismatch")
	}
	if in == 0 {
		return
	}
	kernels.gradX(ad0, ad1, d0, d1, w)
}

func gradXRow(xd, d, w []float64) {
	if len(w) < len(xd)*len(d) {
		panic("nn: gradXRow shape mismatch")
	}
	if len(xd) == 0 {
		return
	}
	kernels.gradXRow(xd, d, w)
}

func gradW(wd, a, d []float64, rows, in, n int) {
	if rows < 0 || in < 0 || n < 0 || len(wd) < in*n || len(a) < rows*in || len(d) < rows*n {
		panic("nn: gradW shape mismatch")
	}
	if rows == 0 || in == 0 || n == 0 {
		return
	}
	kernels.gradW(wd, a, d, rows, in, n)
}

func sigmoid(dst, x []float64) {
	if len(x) < len(dst) {
		panic("nn: sigmoid shape mismatch")
	}
	if len(dst) == 0 {
		return
	}
	kernels.sigmoid(dst, x)
}

func tanh(dst, x []float64) {
	if len(x) < len(dst) {
		panic("nn: tanh shape mismatch")
	}
	if len(dst) == 0 {
		return
	}
	kernels.tanh(dst, x)
}

func expShift(dst, x []float64, m float64) {
	if len(x) < len(dst) {
		panic("nn: expShift shape mismatch")
	}
	if len(dst) == 0 {
		return
	}
	kernels.expShift(dst, x, m)
}

func adamUpdate(w, dw, m, v []float64, c adamCoef) {
	n := len(w)
	if len(dw) < n || len(m) < n || len(v) < n {
		panic("nn: adam shape mismatch")
	}
	if n == 0 {
		return
	}
	kernels.adam(w, dw, m, v, c)
}

func sigmoidGo(dst, x []float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] = 1 / (1 + exp(-v))
	}
}

func tanhGo(dst, x []float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] = tanhOf(v)
	}
}

func expShiftGo(dst, x []float64, m float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] = exp(v - m)
	}
}

// exp is math.Exp as math/exp_amd64.s computes it on a CPU with FMA: math.FMA
// where the assembly fuses, every other product and sum rounded, its
// CVTSD2SL (round to even, MinInt32 outside int32) and its ldexp, which
// splices a denormal result through 2^−1022.
func exp(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375           // ln 2's upper half
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12 // and lower half
	)
	switch {
	case x != x || x == math.Inf(1):
		return x
	case x == math.Inf(-1):
		return 0
	case x > 7.09782712893384e+02:
		return math.Inf(1)
	}
	k := int32(math.MinInt32)
	if t := math.RoundToEven(float64(log2e * x)); t >= math.MinInt32 && t <= math.MaxInt32 {
		k = int32(t)
	}
	r := math.FMA(-float64(k), ln2U, x)
	r = float64(math.FMA(-float64(k), ln2L, r) * 0.0625)
	p := 2.4801587301587301587e-5 // the Taylor coefficients 1/8! … 1/3!, 1/2, 1
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = math.FMA(p, r, c)
	}
	r = float64(r * p)
	for range 3 {
		r = float64(r * float64(r+2))
	}
	r = math.FMA(float64(r+2), r, 1)
	switch e := k + 0x3FF; {
	case e >= 0x7FF:
		return math.Inf(1)
	case e < -52:
		return 0
	case e <= 0:
		return float64(float64(r*math.Float64frombits(uint64(e+0x3FE)<<52)) * 0x1p-1022)
	default:
		return float64(r * math.Float64frombits(uint64(e)<<52))
	}
}

// tanhOf is math.tanh's three branches over exp.
func tanhOf(x float64) float64 {
	const p0, p1, p2 = -9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3
	const q0, q1, q2 = 1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3
	switch z := math.Abs(x); {
	case z > 0.5*8.8029691931113054295988e+01: // log(2**127)/2
		return math.Copysign(1, x)
	case z >= 0.625:
		return math.Copysign(1-2/(exp(2*z)+1), x)
	case x == 0:
		return x
	}
	s := float64(x * x)
	p := float64(float64(float64(p0*s)+p1)*s) + p2
	q := float64(float64(float64(float64(s+q0)*s)+q1)*s) + q2
	return x + float64(float64(x*s)*p)/q
}

// adamGo is Adam's update loop: the clip scale, the two moment updates, and
// w −= lr·m̂/(√v̂+ε) with m̂ = m/bc1, v̂ = v/bc2.
func adamGo(w, dw, m, v []float64, c adamCoef) {
	n := len(w)
	dw, m, v = dw[:n], m[:n], v[:n]
	for i := range w {
		d := float64(dw[i] * c.scale)
		mi := float64(c.b1*m[i]) + float64(c.c1*d)
		vi := float64(c.b2*v[i]) + float64(float64(c.c2*d)*d)
		m[i], v[i] = mi, vi
		w[i] -= float64(c.lr*(mi/c.bc1)) / (math.Sqrt(vi/c.bc2) + c.eps)
		dw[i] = 0
	}
}

func axpyGo(dst, x []float64, a float64) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += float64(a * x[j])
	}
}

func matvecGo(dst, x, w []float64) {
	n := len(dst)
	for k, a := range x {
		if a != 0 {
			axpyGo(dst, w[k*n:(k+1)*n], a)
		}
	}
}

func gradXGo(ad0, ad1, d0, d1, w []float64) {
	n := len(d0)
	for k := range ad0 {
		ad0[k] += laneDot(d0, w[k*n:(k+1)*n])
		if ad1 != nil {
			ad1[k] += laneDot(d1[:n], w[k*n:(k+1)*n])
		}
	}
}

// laneDot returns d·w summed in four lanes, lane l taking j ≡ l (mod 4)
// ascending and lane 0 also the len(d) mod 4 tail, as (l0+l1)+(l2+l3).
func laneDot(d, w []float64) float64 {
	w = w[:len(d)]
	var l0, l1, l2, l3 float64
	j := 0
	for ; j+4 <= len(d); j += 4 {
		l0 += float64(d[j] * w[j])
		l1 += float64(d[j+1] * w[j+1])
		l2 += float64(d[j+2] * w[j+2])
		l3 += float64(d[j+3] * w[j+3])
	}
	for ; j < len(d); j++ {
		l0 += float64(d[j] * w[j])
	}
	return (l0 + l1) + (l2 + l3)
}

func gradWGo(wd, a, d []float64, rows, in, n int) {
	for k := 0; k < in; k++ {
		for r := 0; r < rows; r++ {
			axpyGo(wd[k*n:(k+1)*n], d[r*n:(r+1)*n], a[r*in+k])
		}
	}
}

// dot returns x·r in one serial accumulator, j ascending.
func dot(x, r []float64) float64 {
	r = r[:len(x)]
	var s float64
	for j, v := range x {
		s += float64(v * r[j])
	}
	return s
}

// sumSquares returns acc + Σ x[j]², continuing acc's serial chain, so a norm
// taken over several tensors is one accumulator across all of them.
func sumSquares(acc float64, x []float64) float64 {
	for _, v := range x {
		acc += float64(v * v)
	}
	return acc
}

// sumSquaresLanes returns Σ x[j]² in the body in use's order, for
// withinClip's bound: the squares sumSquares chains one by one, in another
// order (each square is rounded the same way in both). An element's path
// through it is at most len(x) + sumSquaresLaneAdds − 1 additions.
func sumSquaresLanes(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return kernels.sumSquares(x)
}

// sumSquaresLanesGo sums in eight accumulators, lane l taking j ≡ l (mod 8)
// ascending and lane 0 the len(x) mod 8 tail, then the lanes pairwise.
func sumSquaresLanesGo(x []float64) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	j := 0
	for ; j+8 <= len(x); j += 8 {
		v := x[j : j+8 : j+8]
		s0 += float64(v[0] * v[0])
		s1 += float64(v[1] * v[1])
		s2 += float64(v[2] * v[2])
		s3 += float64(v[3] * v[3])
		s4 += float64(v[4] * v[4])
		s5 += float64(v[5] * v[5])
		s6 += float64(v[6] * v[6])
		s7 += float64(v[7] * v[7])
	}
	for ; j < len(x); j++ {
		s0 += float64(x[j] * x[j])
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// sumSquaresLaneAdds bounds the additions a body of sumSquares adds to an
// element's path beyond one per element — three or four to combine the
// lanes, one to add the assembly's tail — with one more for the caller's
// add of the result.
const sumSquaresLaneAdds = 8

// dot4 is dot against four rows at once: four independent serial chains, so
// the adds of one hide behind the latency of the others.
func dot4(x, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for j, v := range x {
		s0 += float64(v * r0[j])
		s1 += float64(v * r1[j])
		s2 += float64(v * r2[j])
		s3 += float64(v * r3[j])
	}
	return
}

// matMulRows accumulates a·w into dst over rows [lo, hi) of a row-major
// batch a of width cols and a cols×p matrix w: one matvecRows per run of
// consecutive rows where active is true (nil = all rows).
func matMulRows(a []float64, lo, hi, cols int, w []float64, p int, dst []float64, active []bool) {
	for i := lo; i < hi; {
		if active != nil && !active[i] {
			i++
			continue
		}
		run := i
		for i++; i < hi && (active == nil || active[i]); i++ {
		}
		matvecRows(dst[run*p:i*p], a[run*cols:i*cols], w, i-run, cols, p)
	}
}

// gradXRowGo runs the chains four k's side by side.
func gradXRowGo(xd, d, w []float64) {
	in, n := len(xd), len(d)
	k := 0
	for ; k+4 <= in; k += 4 {
		s0, s1, s2, s3 := dot4(d, w[k*n:(k+1)*n], w[(k+1)*n:(k+2)*n], w[(k+2)*n:(k+3)*n], w[(k+3)*n:(k+4)*n])
		xd[k] += s0
		xd[k+1] += s1
		xd[k+2] += s2
		xd[k+3] += s3
	}
	for ; k < in; k++ {
		xd[k] += dot(d, w[k*n:(k+1)*n])
	}
}

// backRowMatMul accumulates the gradients of out = x·w for one row x (len
// in) and a flat in×len(dOut) matrix w: the weight gradient is gradW over the
// one row, the input gradient gradXRow.
func backRowMatMul(x, xd, w, wd, dOut []float64) {
	in, n := len(x), len(dOut)
	gradW(wd, x, dOut, 1, in, n)
	gradXRow(xd, dOut, w)
}

// gradXRows accumulates the input gradient of out = a·w, a batch of rows×in
// (gradient ad) times a flat in×n matrix w, given dOut (rows×n), over rows
// [lo, hi): one gradX per pair of active rows of the range, a lone last row
// alone. Rows where active is false (nil = all active) get none.
func gradXRows(ad []float64, in int, w []float64, n int, dOut []float64, active []bool, lo, hi int) {
	pending := -1 // an active row waiting for a partner
	for i := lo; i < hi; i++ {
		if active != nil && !active[i] {
			continue
		}
		if pending < 0 {
			pending = i
			continue
		}
		gradX(ad[pending*in:(pending+1)*in], ad[i*in:(i+1)*in], dOut[pending*n:(pending+1)*n], dOut[i*n:(i+1)*n], w)
		pending = -1
	}
	if pending >= 0 {
		d := dOut[pending*n : (pending+1)*n]
		gradX(ad[pending*in:(pending+1)*in], nil, d, d, w)
	}
}

// gradWRuns accumulates the weight gradient wd (in×n) of out = a·w, a batch
// of rows×in, given dOut (rows×n): one gradW per run of consecutive active
// rows, so each element sums the active rows in ascending order. Rows where
// active is false are skipped: their dOut rows are zero, so they contribute
// nothing.
func gradWRuns(wd, a []float64, rows, in, n int, dOut []float64, active []bool) {
	run := 0 // the current run's first row
	for i := 0; i <= rows; i++ {
		if i < rows && (active == nil || active[i]) {
			continue
		}
		if i > run {
			gradW(wd, a[run*in:], dOut[run*n:], i-run, in, n)
		}
		run = i + 1
	}
}

// attendDotInto computes dst[i] = q·h_i over a flat rows×len(q) memory h.
func attendDotInto(q, h []float64, rows int, dst []float64) {
	d := len(q)
	i := 0
	for ; i+4 <= rows; i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(q, h[i*d:(i+1)*d], h[(i+1)*d:(i+2)*d], h[(i+2)*d:(i+3)*d], h[(i+3)*d:(i+4)*d])
	}
	for ; i < rows; i++ {
		dst[i] = dot(q, h[i*d:(i+1)*d])
	}
}

// backAttendDot accumulates the gradients of scores = q·hᵀ over a flat
// len(dOut)×len(q) memory h; rows whose score gradient is zero are skipped,
// as matvec skips a zero x[k]: qd is one product over the rows of h, and row i
// of hd a product with the one-element dOut[i:i+1].
func backAttendDot(q, qd, h, hd, dOut []float64) {
	d := len(q)
	matvec(qd, dOut, h)
	for i := range dOut {
		matvec(hd[i*d:(i+1)*d], dOut[i:i+1], q)
	}
}
