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
//     ascending, without skipping zeros;
//   - the input gradient of a batched product (gradX) sums over j in four
//     lane accumulators, lane l taking j ≡ l (mod 4) ascending and lane 0 the
//     n mod 4 tail, combined as (l0+l1)+(l2+l3);
//   - the input gradient of a single-row product — a one-row batch is one —
//     and the attention score (dot4, dot), is one serial accumulator over j
//     ascending.
//
// Every product is rounded before it is added: no fused multiply-add, in any
// body. The multiply-add primitives of the first three rules — matvec, gradW,
// gradX — each called once per matrix, have a pure-Go reference body here,
// and AVX2 and AVX-512 bodies in kernel_amd64.s that issue, per output
// element, the identical sequence of IEEE multiplies and adds, so the bodies
// agree bit for bit. matvec and gradW hold a 32-wide strip of their output in
// registers for the whole k (row) loop; gradX holds the lanes of two rows ×
// four k for the whole j loop. The AVX-512 bodies run where CPUID reports
// AVX512F and the OS saves the ZMM state, the AVX2 ones elsewhere on amd64,
// the reference body under purego or on another architecture. The float64()
// conversions in the reference bodies are what forbids the compiler from
// fusing on platforms where it otherwise would. The serial dot products have
// one Go body: their speed comes from running four independent chains side
// by side, which scalar code already does.
//
// Everything else in the file builds the package's matrix kernels out of
// those primitives; the single-row and batched forms share one loop nest each
// way, so "batched equals row by row" holds by construction.
//
// On a gradient-recording graph, an op over two rows or more is split in two
// parts, the upper one offered to a helper core (team.go). Every split point
// keeps each output element's summation order above, because the parts
// write disjoint elements and each element is computed whole by one part:
//
//   - the forward product (matMulRows), the LSTM step (both products of a
//     row, then its cell), the attention forward and SoftmaxRows split by
//     rows;
//   - the backward product (backMatMulPart) splits gradX by active-row pairs
//     — a part left with a lone row calls gradX with a nil ad1, in lane
//     order, never backRowMatMul's serial chain — and gradW by k, the rows
//     of wd: gradW's k-count is separate from a's stride, so a part sums
//     all the batch rows of its weight rows, ascending;
//   - the LSTM gate gradients and the attention backward split by rows: in
//     the training layout row r owns memory block r.
//
// Bias reductions across rows, dropout's random draws and Adam run on the
// caller. A split op's outputs come from the arena uncleared, and each part
// clears its own rows first (Graph.newRows, zeroRows).
//
// The elementwise primitives (sigmoid, tanh, expShift for softmax, adam) are
// the only place in the package that calls math.Exp or math.Tanh or does
// Adam's arithmetic. Their contract is their reference body, the scalar loop
// each replaced: 1/(1+math.Exp(−x)), math.Tanh(x), math.Exp(x−m), and Adam's
// update in the order Adam.Step has always used. The assembly bodies meet it
// lane by lane:
//
//   - exp is math.Exp's FMA code path (math/exp_amd64.s) four lanes wide,
//     with its constants, fusing exactly where it fuses. Lanes outside
//     [−708, 709], where the scalar code takes its overflow, underflow and
//     denormal branches, and NaN lanes are math.Exp's own: the body stops at
//     their group of four and the reference body takes it;
//   - tanh computes math.tanh's three branches for every lane and blends
//     them, keeping ±0 as it came;
//   - adam rounds every product and uses the correctly rounded divide and
//     square root, in the reference's order.
//
// That exp agrees with math.Exp only while math.Exp takes its FMA path — on a
// CPU with AVX and FMA, unless GODEBUG=cpu.fma=off — and only for the
// math.Exp and math.tanh this copies. So the activation bodies run only
// where CPUID reports AVX2 and FMA and an init-time probe (activationsAgree)
// finds them equal to the reference bit for bit; everywhere else the
// reference body runs. Trained weights are therefore bit-identical run to run
// on a host, with or without the assembly; an FMA and a non-FMA host already
// differed before, because math.Exp does.
//
// NaN payloads are outside the contract: which payload survives an operation
// on two NaNs depends on operand order, which neither body fixes, so "bit for
// bit" treats every NaN as one value, here and in the parity tests.

// kernelSet is one body of the primitive family.
type kernelSet struct {
	// matvec: dst[j] += Σ_k x[k]·w[k·len(dst)+j], k ascending, skipping ±0
	// x[k]; dst must not overlap x or w.
	matvec func(dst, x, w []float64)
	// gradW: wd[k·n+j] += Σ_r a[r·in+k]·d[r·n+j] for k < kn, r ascending, no
	// zero skipped. in is a's row stride: rows k0..k1 of a product are
	// gradW(wd[k0·n:], a[k0:], d, rows, k1−k0, in, n).
	gradW func(wd, a, d []float64, rows, kn, in, n int)
	// gradX: ad0[k] += laneDot(d0, w_k) and ad1[k] += laneDot(d1, w_k) for
	// every k < len(ad0), w_k = w[k·n:(k+1)·n], n = len(d0). A nil ad1 drops
	// row 1's sums: a lone row passes itself as d1.
	gradX func(ad0, ad1, d0, d1, w []float64)

	// sigmoid: dst[j] = 1/(1+exp(−x[j])).
	sigmoid func(dst, x []float64)
	// tanh: dst[j] = tanh(x[j]).
	tanh func(dst, x []float64)
	// expShift: dst[j] = exp(x[j]−m).
	expShift func(dst, x []float64, m float64)
	// adam: one Adam update of the weights w from their gradient dw, which it
	// clears, and their moments m, v.
	adam func(w, dw, m, v []float64, c adamCoef)
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
		matvec: matvecGo, gradW: gradWGo, gradX: gradXGo,
		sigmoid: sigmoidGo, tanh: tanhGo, expShift: expShiftGo, adam: adamGo,
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

func gradW(wd, a, d []float64, rows, kn, in, n int) {
	if kn < 0 || kn > in || len(wd) < kn*n || rows > 0 && len(a) < (rows-1)*in+kn || len(d) < rows*n {
		panic("nn: gradW shape mismatch")
	}
	if rows == 0 || kn == 0 || n == 0 {
		return
	}
	kernels.gradW(wd, a, d, rows, kn, in, n)
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
		dst[j] = 1 / (1 + math.Exp(-v))
	}
}

func tanhGo(dst, x []float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] = math.Tanh(v)
	}
}

func expShiftGo(dst, x []float64, m float64) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] = math.Exp(v - m)
	}
}

// adamGo is Adam.Step's loop: the clip scale, the two moment updates, and
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

// activationsAgree reports whether ks's activations give the reference
// body's bits on a spread of arguments across every branch of math.Exp and
// math.tanh. It is the init-time guard on the assembly activations: under
// GODEBUG=cpu.fma=off, or against a math.Exp that is no longer the code the
// assembly copies, a few hundred arguments find a difference.
func activationsAgree(ks kernelSet) bool {
	x := make([]float64, 600, 605)
	for i := range x {
		u := 2*math.Mod(float64(i)*0.6180339887498949, 1) - 1 // low-discrepancy in [−1, 1)
		x[i] = u * [...]float64{2, 30, 720}[i%3]
	}
	x = append(x, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN())
	got, want := make([]float64, len(x)), make([]float64, len(x))
	for _, run := range []func(k kernelSet, dst []float64){
		func(k kernelSet, dst []float64) { k.sigmoid(dst, x) },
		func(k kernelSet, dst []float64) { k.tanh(dst, x) },
		func(k kernelSet, dst []float64) { k.expShift(dst, x, 0) },
	} {
		run(ks, got)
		run(goKernels, want)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				return false
			}
		}
	}
	return true
}

// sameBits is equality of math.Float64bits, with every NaN equal to every
// other (see the NaN note above).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
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

func gradWGo(wd, a, d []float64, rows, kn, in, n int) {
	for k := 0; k < kn; k++ {
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
// batch a of width cols and a cols×p matrix w: one matvec per row, skipping
// rows where active is false (nil = all rows).
func matMulRows(a []float64, lo, hi, cols int, w []float64, p int, dst []float64, active []bool) {
	for i := lo; i < hi; i++ {
		if active == nil || active[i] {
			matvec(dst[i*p:(i+1)*p], a[i*cols:(i+1)*cols], w)
		}
	}
}

// backRowMatMul accumulates the gradients of out = x·w for one row x (len
// in) and a flat in×len(dOut) matrix w: the weight gradient is gradW over the
// one row; the input gradient of each k is one serial chain over j, four k's
// side by side. (gradW goes first so that little stays live across the chains
// and they keep their operands in registers.)
func backRowMatMul(x, xd, w, wd, dOut []float64) {
	in, n := len(x), len(dOut)
	gradW(wd, x, dOut, 1, in, in, n)
	k := 0
	for ; k+4 <= in; k += 4 {
		s0, s1, s2, s3 := dot4(dOut, w[k*n:(k+1)*n], w[(k+1)*n:(k+2)*n], w[(k+2)*n:(k+3)*n], w[(k+3)*n:(k+4)*n])
		xd[k] += s0
		xd[k+1] += s1
		xd[k+2] += s2
		xd[k+3] += s3
	}
	for ; k < in; k++ {
		xd[k] += dot(dOut, w[k*n:(k+1)*n])
	}
}

// backMatMulRows accumulates the gradients of out = a·w for a rows×in batch a
// (gradient ad) and a flat in×n matrix w (gradient wd), given dOut (rows×n).
// A one-row batch is a single-row product and takes backRowMatMul; any other
// is backMatMulPart over all of it.
func backMatMulRows(a, ad []float64, rows, in int, w, wd []float64, n int, dOut []float64, active []bool) {
	if rows == 1 {
		if active == nil || active[0] {
			backRowMatMul(a[:in], ad[:in], w, wd, dOut[:n])
		}
		return
	}
	backMatMulPart(a, ad, rows, in, w, wd, n, dOut, active, 0, rows, 0, in)
}

// backMatMulPart is the share of a batched product's backward that rows
// [r0, r1) of ad and rows [k0, k1) of wd hold: one gradX per pair of active
// rows of the range, a lone last row alone, and for each of those weight
// rows one gradW per run of consecutive active rows of the whole batch, so
// each weight-gradient element sums the active rows in ascending order. Rows
// where active is false are skipped: their dOut rows are zero, so they
// contribute nothing. Parts with disjoint ranges write disjoint elements.
func backMatMulPart(a, ad []float64, rows, in int, w, wd []float64, n int, dOut []float64, active []bool, r0, r1, k0, k1 int) {
	pending := -1 // an active row waiting for a partner
	for i := r0; i < r1; i++ {
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
	if k0 == k1 {
		return
	}
	run := 0 // the current run's first row
	for i := 0; i <= rows; i++ {
		if i < rows && (active == nil || active[i]) {
			continue
		}
		if i > run {
			gradW(wd[k0*n:], a[run*in+k0:], dOut[run*n:], i-run, k1-k0, in, n)
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
