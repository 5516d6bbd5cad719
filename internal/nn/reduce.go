package nn

// This file holds the reductions of every backward: the parameter gradients,
// the one part of a training step that sums over batch rows. An op's
// row-local backward (Graph.backRows) writes only its input rows' gradients;
// what it adds into a weight, a bias or an embedding table waits for the end
// of Backward, where each parameter's gradient runs its ops' contributions in
// the order the row-local pass met them — the tape reversed, and within an
// op the order its backward has always used — on one core. Each element
// therefore sees the same adds in the same order whoever runs it. On a split
// step the parameters are shared out between the two cores by their cost,
// and BackwardStep has each core also bound its parameters' sum of squares
// for the clip, and update them; any other graph runs all of it on the
// caller.
//
// A parameter's consecutive one-row products of one shape — a one-row step's
// tokens through the same weight — run as one gradW over all their rows
// (rowRun): gradW sums rows ascending and skips nothing, so each element sees
// the adds it would see product by product, but the gradient is read and
// written once rather than once per row.

// A paramGrad is one gradient's reductions in a backward: the ops'
// contributions to it, in order, what they cost, and which part runs them.
type paramGrad struct {
	ops   []paramReduction
	cost  int
	param int // BackwardStep: its index in params, or −1
	part  int
}

// stepUpdate is BackwardStep's Adam step: its parameters and coefficients,
// and each part's lane sum of squares (sumSquaresLanes) and addition count.
type stepUpdate struct {
	opt    *Adam
	params []*Tensor
	part   []int // the part of each parameter (the graph's)
	c      adamCoef
	sum    [2]float64
	adds   [2]int
}

// A paramReduction is one of an op's reductions: the gradient it adds into
// over the op's rows rows, and what that costs in multiply-adds. A weight's
// is the gradient of a product — w of out = a·w, given out's gradient d over
// the rows where active is true (nil = all) — a bias's the sum of d's rows,
// an embedding table's the rows of d added at ids.
type paramReduction struct {
	dst        []float64
	rows, cost int
	a, w       *Tensor
	d          []float64
	active     []bool
	ids        []int
}

// opReductions sets rs[:n] to op o's reductions, in the order its backward
// has always added them, and returns n.
func opReductions(o *tapeOp, rs *[3]paramReduction) (n int) {
	rows := o.rows()
	product := func(a, w *Tensor, d []float64, active []bool) paramReduction {
		return paramReduction{dst: w.DW, rows: rows, cost: countActive(rows, active) * len(w.W), a: a, w: w, d: d, active: active}
	}
	switch o.kind {
	case opMatMul:
		rs[0] = product(o.a, o.b, o.out.DW, nil)
		return 1
	case opAffineBatch:
		rs[0] = paramReduction{dst: o.c.DW, rows: rows, cost: rows * o.c.Cols, d: o.out.DW}
		rs[1] = product(o.a, o.b, o.out.DW, nil)
		return 2
	case opLSTMStepBatch:
		cell, dG := o.cell, o.aux.DW
		rs[0] = paramReduction{dst: cell.B.DW, rows: rows, cost: rows * cell.B.Cols, d: dG}
		rs[1] = product(o.b, cell.Wh, dG, o.mask)
		rs[2] = product(o.a, cell.Wx, dG, o.mask)
		return 3
	case opLookupRows:
		rs[0] = paramReduction{dst: o.a.DW, rows: rows, cost: rows * o.a.Cols, d: o.out.DW, ids: o.ints}
		return 1
	}
	return 0
}

// run adds the reduction into its gradient.
func (r *paramReduction) run() {
	switch {
	case r.w != nil:
		// The unfused MatMul's too: row by row ascending, as gradW sums
		// rows, is its per-row backward's order.
		gradWRuns(r.dst, r.a.W, r.rows, r.a.Cols, r.w.Cols, r.d, r.active)
	case r.ids != nil:
		n := len(r.d) / r.rows
		for i, id := range r.ids {
			dst := r.dst[id*n : (id+1)*n]
			for j, v := range r.d[i*n : (i+1)*n] {
				dst[j] += v
			}
		}
	default:
		addRows(r.dst, r.d, r.rows)
	}
}

// addRows adds the rows rows of d (rows×len(dst)) into dst, ascending: a
// bias's broadcast backward. It is gradW with a column of ones for the left
// operand, as 1·v is v exactly.
func addRows(dst, d []float64, rows int) {
	n := len(dst)
	for r := 0; r < rows; r += len(onesCol) {
		k := min(rows-r, len(onesCol))
		gradW(dst, onesCol[:k], d[r*n:], k, 1, n)
	}
}

var onesCol = func() (ones [64]float64) {
	for i := range ones {
		ones[i] = 1
	}
	return ones
}()

// A rowRun gathers a gradient's consecutive one-row products of one shape:
// rows rows of their left operands (a, rows×in) and output gradients (d,
// rows×n), added into the in×n gradient dst by one gradW when the run ends.
type rowRun struct {
	dst         []float64
	in, n, rows int
	a, d        []float64
}

// add appends the one row of product r, first ending a run of another shape.
func (run *rowRun) add(r *paramReduction) {
	in, n := r.w.Rows, r.w.Cols
	if in != run.in || n != run.n {
		run.flush()
		run.in, run.n = in, n
	}
	run.dst = r.dst
	run.a = append(run.a, r.a.W[:in]...)
	run.d = append(run.d, r.d[:n]...)
	run.rows++
}

// flush adds the run's rows into its gradient, ascending, and empties it.
func (run *rowRun) flush() {
	gradW(run.dst, run.a, run.d, run.rows, run.in, run.n)
	run.a, run.d, run.rows = run.a[:0], run.d[:0], 0
}

// reduce runs the reductions, after the row-local backward: it lists each
// gradient's reductions, tape reversed, shares the gradients out between the
// two parts, and runs them, split on a split step. With up it then updates
// the parameters: each part bounds its parameters' sum of squares, the
// caller works out the clip scale, and each part updates the parameters it
// reduced.
func (g *Graph) reduce(up *stepUpdate) {
	if g.gradIdx == nil {
		g.gradIdx = map[*float64]int{}
	}
	clear(g.gradIdx)
	for i := range g.grads {
		g.grads[i].ops = g.grads[i].ops[:0]
	}
	g.grads = g.grads[:0]
	var rs [3]paramReduction
	for i := len(g.tape) - 1; i >= 0; i-- {
		n := opReductions(&g.tape[i], &rs)
		for k := range rs[:n] {
			r := &rs[k]
			if len(r.dst) == 0 {
				continue
			}
			e := g.gradOf(r.dst)
			e.ops = append(e.ops, *r)
			e.cost += r.cost
		}
	}
	costs, parts := g.costs[:0], g.parts[:0]
	if up == nil {
		for i := range g.grads {
			costs = append(costs, g.grads[i].cost)
		}
		parts = share(costs, parts)
		for i := range g.grads {
			g.grads[i].part = parts[i]
		}
		g.costs, g.parts = costs, parts
		g.j = job{run: reduceJob, g: g, rcut: [3]int{0, 1, 2}}
		g.fork(&g.j)
		return
	}
	opt, params := up.opt, up.params
	up.c = opt.begin()
	g.moms = g.moms[:0]
	for pi, p := range params {
		g.moms = append(g.moms, opt.momentOf(p))
		// A parameter costs its reductions and its update, an update about
		// what sixteen multiply-adds do (it divides and takes a square root).
		c := 16 * len(p.W)
		if len(p.DW) > 0 {
			if e, ok := g.gradIdx[&p.DW[0]]; ok {
				g.grads[e].param = pi
				c += g.grads[e].cost
			}
		}
		costs = append(costs, c)
	}
	parts = share(costs, parts)
	g.costs, g.parts, up.part = costs, parts, parts
	for i := range g.grads {
		if e := &g.grads[i]; e.param >= 0 {
			e.part = parts[e.param]
		}
	}
	g.j = job{run: reduceJob, g: g, up: up, rcut: [3]int{0, 1, 2}}
	g.fork(&g.j)
	if opt.Clip > 0 {
		up.c.scale = opt.clipScale(params, up.sum[0]+up.sum[1], up.adds[0]+up.adds[1]+1)
	}
	g.j = job{run: updateJob, g: g, up: up, rcut: [3]int{0, 1, 2}}
	g.fork(&g.j)
}

// gradOf returns the entry of the gradient dw, adding it.
func (g *Graph) gradOf(dw []float64) *paramGrad {
	if i, ok := g.gradIdx[&dw[0]]; ok {
		return &g.grads[i]
	}
	i := len(g.grads)
	if i == cap(g.grads) {
		g.grads = append(g.grads, paramGrad{})
	} else {
		g.grads = g.grads[:i+1]
	}
	e := &g.grads[i]
	e.ops, e.cost, e.param, e.part = e.ops[:0], 0, -1, 0
	g.gradIdx[&dw[0]] = i
	return e
}

// share appends to parts, for each item of costs, part 0 or 1: largest cost
// first into the part with less so far (ties to the earlier item, then to
// part 0). It returns parts.
func share(costs, parts []int) []int {
	for range costs {
		parts = append(parts, -1)
	}
	var load [2]int
	for range costs {
		best := -1
		for i, c := range costs {
			if parts[i] < 0 && (best < 0 || c > costs[best]) {
				best = i
			}
		}
		part := 0
		if load[1] < load[0] {
			part = 1
		}
		parts[best] = part
		load[part] += costs[best]
	}
	return parts
}

// reduceJob runs the reductions of the gradients in parts [from, to), each
// one-row product through its part's rowRun, and with an update bounds those
// parts' parameters' sums of squares.
func reduceJob(j *job, from, to int) {
	g := j.g
	for i := range g.grads {
		e := &g.grads[i]
		if e.part < from || e.part >= to {
			continue
		}
		run := &g.runs[e.part]
		for k := range e.ops {
			switch r := &e.ops[k]; {
			case r.w == nil || r.rows > 1:
				run.flush()
				r.run()
			case r.active == nil || r.active[0]:
				run.add(r)
			}
		}
		run.flush()
	}
	up := j.up
	if up == nil || up.opt.Clip <= 0 {
		return
	}
	for part := from; part < to; part++ {
		var s float64
		adds := 0
		for pi, p := range up.params {
			if up.part[pi] == part {
				s += sumSquaresLanes(p.DW)
				adds += len(p.DW) + sumSquaresLaneAdds
			}
		}
		up.sum[part], up.adds[part] = s, adds
	}
}

// updateJob runs Adam on the parameters of parts [from, to).
func updateJob(j *job, from, to int) {
	up := j.up
	for pi, p := range up.params {
		if part := up.part[pi]; part >= from && part < to {
			mo := j.g.moms[pi]
			adamUpdate(p.W, p.DW, mo.m, mo.v, up.c)
		}
	}
}
