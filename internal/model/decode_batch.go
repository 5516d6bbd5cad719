package model

import "repro/internal/nn"

// This file holds the decode loop: a window of requests advances through
// one batched forward per decode step (every live hypothesis is one row of
// the stacked tensors), so a backlog buys matmul width instead of just
// queueing, and a lone request is a window of one. Per row the batched
// kernels compute what a window of one does, so a request decodes to the
// same tokens and scores whatever window it arrives in.

// gatherRows copies the selected rows of t into a fresh graph tensor. It is
// decode-only (no gradient link): the search uses it to carry the surviving
// hypotheses' states into the next lockstep decode step.
//
//genielint:returns-arena
func gatherRows(g *nn.Graph, t *nn.Tensor, idx []int) *nn.Tensor {
	out := g.NewTensor(len(idx), t.Cols)
	for i, r := range idx {
		copy(out.W[i*t.Cols:(i+1)*t.Cols], t.W[r*t.Cols:(r+1)*t.Cols])
	}
	return out
}

// gather is gatherRows over a stacked decoder state.
//
//genielint:returns-arena
func (st decodeState) gather(g *nn.Graph, idx []int) decodeState {
	return decodeState{h: gatherRows(g, st.h, idx), c: gatherRows(g, st.c, idx), ctx: gatherRows(g, st.ctx, idx)}
}

// encodeRows encodes the requests rows[idx...] as one window; withCtx runs
// the previous-program encoder over their contexts.
//
//genielint:returns-arena
func (p *Parser) encodeRows(dc *decodeCtx, rows []Row, idx []int, withCtx bool) encodedBatch {
	dc.words, dc.ctxs = dc.words[:0], dc.ctxs[:0]
	for _, i := range idx {
		dc.words = append(dc.words, rows[i].Words)
		dc.ctxs = append(dc.ctxs, rows[i].Context)
	}
	return p.encode(dc.g, &dc.bufs, &dc.cbufs, dc.words, dc.ctxs, withCtx, nil)
}

// decodeStepBatch is the decoder step, for the loss and the search:
// one lockstep step over R rows — embedding lookup of the previous tokens
// prev, input feeding, LSTM, attention over each row's memory block
// (blocks[r] names it; nil = block r), h-tilde and its dropout (training
// graphs only, from e.drop), the second attention when the window carries a
// context memory, and the output projections. Rows where active is false
// carry their LSTM state through (nil = all rows step).
//
//genielint:returns-arena
func (p *Parser) decodeStepBatch(g *nn.Graph, e *encodedBatch, prev, blocks []int, st decodeState, active []bool) stepOut {
	x := g.ConcatCols(g.LookupRows(p.decEmb.Table, prev), st.ctx)
	h, c := p.dec.StepBatch(g, x, st.h, st.c, active)
	alpha, ctx := g.AttendSoftmaxContextBatch(g.BatchedAffine(h, p.attnLin.W, p.attnLin.B), e.H, blocks, e.lens)
	o := stepOut{alpha: alpha, next: decodeState{h: h, c: c, ctx: ctx}}
	htilde := g.Tanh(g.BatchedAffine(g.ConcatCols(h, ctx), p.combLin.W, p.combLin.B))
	htilde = g.Dropout(htilde, p.cfg.Dropout, e.drop)
	if e.C != nil {
		var cctx *nn.Tensor
		o.beta, cctx = g.AttendSoftmaxContextBatch(g.BatchedAffine(htilde, p.ctxAttnLin.W, p.ctxAttnLin.B), e.C, blocks, e.clens)
		htilde = g.Tanh(g.BatchedAffine(g.ConcatCols(htilde, cctx), p.ctxCombLin.W, p.ctxCombLin.B))
	}
	o.pv = g.SoftmaxRows(g.BatchedAffine(htilde, p.outLin.W, p.outLin.B))
	o.gate = g.Sigmoid(g.BatchedAffine(htilde, p.gateLin.W, p.gateLin.B))
	if e.C != nil {
		o.cgate = g.Sigmoid(g.BatchedAffine(htilde, p.ctxGateLin.W, p.ctxGateLin.B))
	}
	return o
}

// search decodes the requests live (indices into the window) in lockstep,
// each with a beam of width hypotheses — greedy is width 1 — and writes
// request b's winner to out[idx[b]]. At every decode step the running
// hypotheses of all requests stack into one batched forward (a request's
// hypotheses share its memory block through the attention block mapping),
// then each request scans its running hypotheses for their width best next
// tokens and keeps the width best children, complete ones included. A
// request drops out of the batch once all its hypotheses are complete.
func (p *Parser) search(dc *decodeCtx, e *encodedBatch, live []int, width int, idx []int, out []Decoded) {
	g := dc.g
	hyps := grow(&dc.hyps, len(live)*width)
	beams := grow(&dc.beams, len(live))
	for k, b := range live {
		beams[k] = append(hyps[k*width:k*width:(k+1)*width], hyp{last: -1, prev: BosID, row: b, gs: p.grammarStart()})
	}
	st := e.init
	maxLen := p.cfg.maxDecodeLen()
	for t := 0; t < maxLen; t++ {
		// Assign a batch row to every running hypothesis; srcIdx records
		// where its state lives in the previous step's tensors.
		prev, blocks, srcIdx := dc.prev[:0], dc.blocks[:0], dc.srcIdx[:0]
		for k, beam := range beams {
			for i := range beam {
				if h := &beam[i]; !h.done {
					srcIdx = append(srcIdx, h.row)
					h.row = len(srcIdx) - 1
					prev = append(prev, h.prev)
					blocks = append(blocks, live[k])
				}
			}
		}
		dc.prev, dc.blocks, dc.srcIdx = prev, blocks, srcIdx
		if len(srcIdx) == 0 {
			break
		}
		if !isIdentity(srcIdx, st.h.Rows) { // some row finished or forked
			st = st.gather(g, srcIdx)
		}
		o := p.decodeStepBatch(g, e, prev, blocks, st, nil)
		st = o.next
		rem := maskedBudget(maxLen, t)
		for k, b := range live {
			beam, cands, running := beams[k], dc.cands[:0], false
			for i := range beam {
				h := &beam[i]
				if h.done {
					cands = append(cands, *h)
					continue
				}
				running = true
				top, masked := p.scan(&dc.scoreScratch, dc.mask(p, h.gs, rem), dc.copyDist(&o, h.row, e.words[b], e.ctxs[b]), width)
				cands = p.expand(dc, cands, h, top, masked)
			}
			dc.cands = cands
			if running {
				beams[k] = prune(beam[:0], cands, width)
			}
		}
	}
	for k, b := range live {
		out[idx[b]] = dc.finish(beams[k])
	}
}

// isIdentity reports whether rows selects every one of n rows in order.
func isIdentity(rows []int, n int) bool {
	if len(rows) != n {
		return false
	}
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}
