package model

import (
	"math"

	"repro/internal/nn"
)

// This file holds the decode loops: a window of requests advances through
// one batched forward per decode step (every live hypothesis is one row of
// the stacked tensors), so a backlog buys matmul width instead of just
// queueing, and a lone request is a window of one. Per row the batched
// kernels compute what a window of one does, so a request decodes to the
// same tokens and scores whatever window it arrives in.

// gatherRows copies the selected rows of t into a fresh graph tensor. It is
// decode-only (no gradient link): the batched decoders use it to carry the
// surviving hypotheses' states into the next lockstep decode step.
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
	return p.encode(dc.g, &dc.bufs, &dc.cbufs, dc.words, dc.ctxs, withCtx)
}

// decodeStepBatch is the decoder step, for the loss and every decode loop:
// one lockstep step over R rows — embedding lookup of the previous tokens
// prev, input feeding, LSTM, attention over each row's memory block
// (blocks[r] names it; nil = block r), h-tilde and its dropout (training
// graphs only), the second attention when the window carries a context
// memory, and the output projections. Rows where active is false carry their
// LSTM state through (nil = all rows step).
//
//genielint:returns-arena
func (p *Parser) decodeStepBatch(g *nn.Graph, e *encodedBatch, prev, blocks []int, st decodeState, active []bool) stepOut {
	x := g.ConcatCols(g.LookupRows(p.decEmb.Table, prev), st.ctx)
	h, c := p.dec.StepBatch(g, x, st.h, st.c, active)
	alpha, ctx := g.AttendSoftmaxContextBatch(g.BatchedAffine(h, p.attnLin.W, p.attnLin.B), e.H, blocks, e.lens)
	o := stepOut{alpha: alpha, next: decodeState{h: h, c: c, ctx: ctx}}
	htilde := g.Tanh(g.BatchedAffine(g.ConcatCols(h, ctx), p.combLin.W, p.combLin.B))
	htilde = g.Dropout(htilde, p.cfg.Dropout, p.rng)
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

// greedyBatch greedily decodes the window in lockstep, writing request b's
// tokens and score to out[idx[b]]: one batched forward per decode step over
// the rows still running; rows that emit </s> drop out of the following
// steps' batch.
func (p *Parser) greedyBatch(dc *decodeCtx, e *encodedBatch, idx []int, out []Decoded) {
	g, B := dc.g, len(idx)
	reqOf := grow(&dc.blocks, B) // per-row request: its memory block
	prev := grow(&dc.prev, B)
	keep := grow(&dc.srcIdx, B)
	gss := grow(&dc.gss, B) // per-row grammar states (nil unmasked)
	for b, i := range idx {
		reqOf[b], prev[b], gss[b] = b, BosID, p.grammarStart()
		out[i] = Decoded{Tokens: make([]string, 0, 16)} // Score accumulates the log-probability
	}
	st := e.init
	R := B
	maxLen := p.cfg.maxDecodeLen()
	for t := 0; t < maxLen && R > 0; t++ {
		o := p.decodeStepBatch(g, e, prev[:R], reqOf[:R], st, nil)
		w := 0
		for r := 0; r < R; r++ {
			b := reqOf[r]
			d := &out[idx[b]]
			tok, prob, masked := p.best(&dc.scoreScratch, gss[r], maskedBudget(maxLen, t), dc.copyDist(&o, r, e.words[b], e.ctxs[b]))
			d.Score += math.Log(prob + 1e-12)
			if tok == EosToken {
				d.Score = lengthNormScore(d.Score, len(d.Tokens), true)
				continue
			}
			d.Tokens = append(d.Tokens, tok)
			gs := gss[r]
			if !masked {
				gs = nil
			}
			reqOf[w], prev[w], keep[w], gss[w] = b, p.tgt.ID(tok), r, p.grammarStep(gs, tok)
			w++
		}
		R, st = w, o.next
		if 0 < R && R < o.pv.Rows { // some row finished: compact the survivors' states
			st = st.gather(g, keep[:R])
		}
	}
	for _, b := range reqOf[:R] { // still running at the length bound
		d := &out[idx[b]]
		d.Score = lengthNormScore(d.Score, len(d.Tokens), false)
	}
}

// beamBatch beam-decodes the requests live (indices into the window) in
// lockstep: at every decode step all live hypotheses across all requests
// stack into one batched forward (a request's beams share its memory block
// via the attention block mapping), then each request expands and prunes its
// own beam.
func (p *Parser) beamBatch(dc *decodeCtx, e *encodedBatch, live []int, width int, idx []int, out []Decoded) {
	g := dc.g
	beams := make([][]beamItem, len(live))
	finished := make([]bool, len(live))
	for k, b := range live {
		beams[k] = []beamItem{{prev: BosID, row: b, gs: p.grammarStart()}}
	}
	st := e.init
	maxLen := p.cfg.maxDecodeLen()
	for t := 0; t < maxLen; t++ {
		// Assign a batch row to every live hypothesis; srcIdx records where
		// its state lives in the previous step's tensors.
		prev, blocks, srcIdx := dc.prev[:0], dc.blocks[:0], dc.srcIdx[:0]
		for k := range beams {
			if finished[k] {
				continue
			}
			for hi := range beams[k] {
				hyp := &beams[k][hi]
				if hyp.done {
					continue
				}
				srcIdx = append(srcIdx, hyp.row)
				hyp.row = len(srcIdx) - 1
				prev = append(prev, hyp.prev)
				blocks = append(blocks, live[k])
			}
		}
		dc.prev, dc.blocks, dc.srcIdx = prev, blocks, srcIdx
		if len(srcIdx) == 0 {
			break
		}
		o := p.decodeStepBatch(g, e, prev, blocks, st.gather(g, srcIdx), nil)
		st = o.next

		for k, b := range live {
			if finished[k] {
				continue
			}
			var cands []beamItem
			allDone := true
			for i := range beams[k] {
				item := &beams[k][i]
				if item.done {
					cands = append(cands, *item)
					continue
				}
				allDone = false
				top, masked := p.top(&dc.scoreScratch, item.gs, maskedBudget(maxLen, t), dc.copyDist(&o, item.row, e.words[b], e.ctxs[b]), width)
				cands = p.expand(cands, item, top, masked, item.row)
			}
			if allDone {
				finished[k] = true
				continue
			}
			beams[k] = prune(cands, width)
		}
	}
	for k, b := range live {
		out[idx[b]] = bestHypothesis(beams[k])
	}
}
