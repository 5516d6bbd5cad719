package model

import (
	"math/rand"

	"repro/internal/nn"
)

// This file is the training loss: B examples stacked into B×n tensors and
// pushed through the fused kernels of internal/nn in one forward/backward per
// optimizer step — a single example is a batch of one. Padding scheme: each
// batch pads to its longest source, context and target sequence; encoder
// steps past a sequence's end carry state through unchanged (row-active
// masks), attention masks scores to each sequence's valid prefix, and loss
// rows past a target's end get a zero gradient scale, so padding never
// contributes probability mass or gradient. The loss steps the decoder with
// decodeStepBatch, the step the search takes.

// batchBufs holds the padded source-side buffers of one batched encoder
// pass, reused across steps (a Trainer owns one inside batchScratch; every
// batched decode call has its own inside a pooled batchDecodeCtx).
//
//genielint:arena-scoped
type batchBufs struct {
	srcIds []int  // position-major B×S source ids (S*B, padding UnkID)
	lens   []int  // per-sequence source lengths (B)
	active []bool // position-major row-active masks (S*B)
	embs   []*nn.Tensor
	fhs    []*nn.Tensor
	bhs    []*nn.Tensor
	rows   []*nn.Tensor
}

// releaseTensors zeroes the retained tensor pointers when a pooled decode
// context's graph lease ends, so the context releases its arena tensors. The
// id/length/mask buffers carry no arena memory and are reused.
func (bb *batchBufs) releaseTensors() {
	clearTensorBuf(bb.embs)
	clearTensorBuf(bb.fhs)
	clearTensorBuf(bb.bhs)
	clearTensorBuf(bb.rows)
}

// clearTensorBuf zeroes a buffer's pointers up to its capacity, not just its
// length, because grow reslices without clearing.
func clearTensorBuf(ts []*nn.Tensor) {
	clear(ts[:cap(ts)])
}

// prepareSrc encodes B source sentences into the padded position-major
// id/mask layout and returns S, the padded length. The id and mask slices
// are retained by the graph tape until Backward/Reset.
func (bb *batchBufs) prepareSrc(v *Vocab, srcs [][]string) int {
	B := len(srcs)
	S := 0
	bb.lens = bb.lens[:0]
	for _, s := range srcs {
		bb.lens = append(bb.lens, len(s))
		S = max(S, len(s))
	}
	ids := grow(&bb.srcIds, S*B)
	act := grow(&bb.active, S*B)
	for i := 0; i < S; i++ {
		for b, s := range srcs {
			if i < len(s) {
				ids[i*B+b] = v.ID(s[i])
				act[i*B+b] = true
			} else {
				ids[i*B+b] = UnkID
				act[i*B+b] = false
			}
		}
	}
	return S
}

// encodeBatch runs the bidirectional encoder over a prepared batch (see
// prepareSrc), with dropout masks from drop on training graphs, returning the
// packed padded memory ((B*S)×2h, one S-row block per sequence) and the
// concatenated final states (B×2h). Rows past a
// sequence's end carry LSTM state through unchanged, so each row's final
// state and memory rows are those of encoding its sentence alone.
//
//genielint:returns-arena
func (p *Parser) encodeBatch(g *nn.Graph, bb *batchBufs, B, S int, drop *rand.Rand) (H, final *nn.Tensor) {
	h := p.cfg.HiddenDim
	embs := grow(&bb.embs, S)
	for i := 0; i < S; i++ {
		embs[i] = g.Dropout(g.LookupRows(p.encEmb.Table, bb.srcIds[i*B:(i+1)*B]), p.cfg.Dropout, drop)
	}
	fh := g.NewTensor(B, h)
	fc := g.NewTensor(B, h)
	fhs := grow(&bb.fhs, S)
	for i := 0; i < S; i++ {
		fh, fc = p.fwd.StepBatch(g, embs[i], fh, fc, bb.active[i*B:(i+1)*B])
		fhs[i] = fh
	}
	bh := g.NewTensor(B, h)
	bc := g.NewTensor(B, h)
	bhs := grow(&bb.bhs, S)
	for i := S - 1; i >= 0; i-- {
		bh, bc = p.bwd.StepBatch(g, embs[i], bh, bc, bb.active[i*B:(i+1)*B])
		bhs[i] = bh
	}
	rows := grow(&bb.rows, S)
	for i := 0; i < S; i++ {
		rows[i] = g.ConcatCols(fhs[i], bhs[i])
	}
	H = g.PackMemoryBatch(rows, bb.lens)
	final = g.ConcatCols(fh, bh)
	return H, final
}

// encodeCtxBatch runs the previous-program encoder over a prepared batch
// (prepareSrc with the target vocabulary), returning the packed padded
// context memory ((B*M)×h, one M-row block per request).
//
//genielint:returns-arena
func (p *Parser) encodeCtxBatch(g *nn.Graph, bb *batchBufs, B, M int, drop *rand.Rand) *nn.Tensor {
	hid := p.cfg.HiddenDim
	embs := grow(&bb.embs, M)
	for i := 0; i < M; i++ {
		embs[i] = g.Dropout(g.LookupRows(p.decEmb.Table, bb.srcIds[i*B:(i+1)*B]), p.cfg.Dropout, drop)
	}
	h := g.NewTensor(B, hid)
	c := g.NewTensor(B, hid)
	hs := grow(&bb.fhs, M)
	for i := 0; i < M; i++ {
		h, c = p.ctxCell.StepBatch(g, embs[i], h, c, bb.active[i*B:(i+1)*B])
		hs[i] = h
	}
	rows := grow(&bb.rows, M)
	copy(rows, hs[:M])
	return g.PackMemoryBatch(rows, bb.lens)
}

// encodedBatch is a window of B sentences after the encoder passes: the
// packed padded source memory H (one block per sentence, lens valid rows
// each), the packed previous-program memory C (nil without a context head)
// and the stacked initial decoder state. The loss and the search both start
// from it, so an escalated decode encodes once. drop is the dropout stream of
// a training window (nil at decode, whose graphs draw no masks).
//
//genielint:arena-scoped
type encodedBatch struct {
	words, ctxs [][]string
	H, C        *nn.Tensor
	lens, clens []int
	init        decodeState
	drop        *rand.Rand
}

// encode runs the source encoder over a window of sentences and, withCtx,
// the previous-program encoder over their contexts (whose ids, lengths and
// masks go to src and ctx, retained by the tape), then sets up the decoder's
// initial state. drop draws the dropout masks of a training graph.
//
//genielint:returns-arena
func (p *Parser) encode(g *nn.Graph, src, ctx *batchBufs, words, ctxs [][]string, withCtx bool, drop *rand.Rand) encodedBatch {
	B := len(words)
	e := encodedBatch{words: words, ctxs: ctxs, drop: drop}
	S := src.prepareSrc(p.src, words)
	H, final := p.encodeBatch(g, src, B, S, drop)
	e.H, e.lens = H, src.lens
	if withCtx {
		M := ctx.prepareSrc(p.tgt, ctxs)
		e.C, e.clens = p.encodeCtxBatch(g, ctx, B, M, drop), ctx.lens
	}
	hid := p.cfg.HiddenDim
	e.init = decodeState{
		h:   g.Tanh(g.BatchedAffine(final, p.initLin.W, p.initLin.B)),
		c:   g.NewTensor(B, hid),
		ctx: g.NewTensor(B, 2*hid),
	}
	return e
}

// batchScratch holds the per-step buffers of lossBatch and lmLossBatch,
// reused across training steps. Slices handed to tape records (ids, prev
// ids, copy masks, vocab indices, gradient scales) are positioned out of
// per-step backings so every record gets a distinct sub-slice.
type batchScratch struct {
	batchBufs
	cbufs     batchBufs // the previous-program encoder's
	srcView   [][]string
	ctxView   [][]string
	tgtLens   []int
	prevIds   []int
	decActive []bool // position-major decoder row-active masks (T*B)
	vocabIdx  []int
	gradW     []float64
	srcMasks  [][]bool
	ctxMasks  [][]bool
	maskBuf   []bool
	nll       []float64
	perEx     []float64
}

// onesGateBatch is a constant gate of 1 per row: pure generation, with no
// parameter behind it — the -pointer ablation, and the LM pass.
//
//genielint:returns-arena
func onesGateBatch(g *nn.Graph, B int) *nn.Tensor {
	t := g.NewTensor(B, 1)
	for b := range t.W {
		t.W[b] = 1
	}
	return t
}

// lossBatch computes the teacher-forced loss of a padded minibatch in one
// batched forward, returning the mean of the per-example mean-per-token
// losses. Gradients are scaled 1/B per example, the mean of the per-example
// gradients. On a contextual parser a pair with a context attends its
// previous-turn program through the second head and copies from it; a batch
// that mixes such pairs with context-free ones runs the head for all of them,
// the context-free rows over an empty memory (training therefore runs
// contextual parsers one pair per batch, where a context-free pair takes the
// single-turn step).
func (t *Trainer) lossBatch(g *nn.Graph, pairs []Pair) float64 {
	p, sc := t.p, &t.scr
	B := len(pairs)
	sc.srcView, sc.ctxView = sc.srcView[:0], sc.ctxView[:0]
	withCtx := false
	for i := range pairs {
		sc.srcView = append(sc.srcView, pairs[i].Src)
		sc.ctxView = append(sc.ctxView, pairs[i].Ctx)
		withCtx = withCtx || (p.ctxCell != nil && len(pairs[i].Ctx) > 0)
	}
	e := p.encode(g, &sc.batchBufs, &sc.cbufs, sc.srcView, sc.ctxView, withCtx, t.drop)
	st := e.init

	T := 0
	sc.tgtLens = sc.tgtLens[:0]
	for i := range pairs {
		n := len(pairs[i].Tgt) + 1 // + </s>
		sc.tgtLens = append(sc.tgtLens, n)
		T = max(T, n)
	}
	prevIds := grow(&sc.prevIds, T*B)
	decActive := grow(&sc.decActive, T*B)
	vocabIdx := grow(&sc.vocabIdx, T*B)
	gradW := grow(&sc.gradW, T*B)
	srcMasks := grow(&sc.srcMasks, T*B)
	ctxMasks := grow(&sc.ctxMasks, T*B)
	nll := grow(&sc.nll, T*B)
	mb := sc.maskBuf[:0]
	inv := 1 / float64(B)

	for t := 0; t < T; t++ {
		prev := prevIds[t*B : (t+1)*B]
		// Rows whose target ended before step t carry their decoder state
		// through (no LSTM work) and get a zero gradient scale below, so a
		// short example costs only its own steps.
		activeT := decActive[t*B : (t+1)*B : (t+1)*B]
		srcT := srcMasks[t*B : (t+1)*B : (t+1)*B]
		ctxT := ctxMasks[t*B : (t+1)*B : (t+1)*B]
		idxT := vocabIdx[t*B : (t+1)*B : (t+1)*B]
		wT := gradW[t*B : (t+1)*B : (t+1)*B]
		for b := range pairs {
			activeT[b] = t < sc.tgtLens[b]
			switch {
			case t == 0:
				prev[b] = BosID
			case t <= len(pairs[b].Tgt):
				prev[b] = p.tgt.ID(targetTok(&pairs[b], t-1))
			default:
				prev[b] = EosID // finished row; its output is never scored
			}
		}
		o := p.decodeStepBatch(g, &e, prev, nil, st, activeT)

		for b := range pairs {
			srcT[b], ctxT[b] = nil, nil
			if t >= sc.tgtLens[b] {
				wT[b], idxT[b] = 0, 0
				continue
			}
			tok := targetTok(&pairs[b], t)
			vi := -1
			if p.tgt.Has(tok) {
				vi = p.tgt.ID(tok)
			}
			if p.cfg.PointerGen {
				// The context masks are read only with a context head.
				mb, srcT[b] = copyMask(mb, pairs[b].Src, tok)
				mb, ctxT[b] = copyMask(mb, pairs[b].Ctx, tok)
			} else if vi < 0 {
				vi = UnkID
			}
			idxT[b], wT[b] = vi, inv
		}
		nllT := nll[t*B : (t+1)*B : (t+1)*B]
		if p.cfg.PointerGen {
			g.NLLPointerMixBatch(o.pv, o.alpha, o.gate, srcT, o.beta, o.cgate, ctxT, idxT, wT, nllT)
		} else {
			g.NLLPointerMixBatch(o.pv, o.alpha, onesGateBatch(g, B), nil, nil, nil, nil, idxT, wT, nllT)
		}
		st = o.next
	}
	sc.maskBuf = mb
	return sc.meanLoss(g, nll, B, T)
}

// meanLoss runs the recorded forward of a step (Graph.Forward: a split step
// records its ops) and returns the mean over its B examples of their
// mean-per-token losses, given the per-step row losses nll (T×B).
func (sc *batchScratch) meanLoss(g *nn.Graph, nll []float64, B, T int) float64 {
	g.Forward()
	perEx := grow(&sc.perEx, B)
	for b := range perEx {
		perEx[b] = 0
		for t := 0; t < T; t++ {
			perEx[b] += nll[t*B+b]
		}
	}
	total := 0.0
	for b := range perEx {
		total += perEx[b] / float64(sc.tgtLens[b])
	}
	return total / float64(B)
}

// targetTok is the teacher-forcing target of step t: the program token, then
// </s> as the final factor.
func targetTok(pair *Pair, t int) string {
	if t < len(pair.Tgt) {
		return pair.Tgt[t]
	}
	return EosToken
}

// lmLossBatch is the batched decoder-only language-model loss: next-token
// prediction over B programs with a zero attention context, gradients
// averaged over the minibatch like lossBatch. The context is left out rather
// than fed as zeros: the decoder LSTM and the combine layer run on views of
// their weights without the rows that read it (Trainer.lmDec, lmCombW). A
// product skips a zero input element, and the weight-gradient rows of one
// only ever receive ±0, so the weights, moments and losses are the bits a
// zero context gives.
func (t *Trainer) lmLossBatch(g *nn.Graph, programs [][]string) float64 {
	p, sc, lmDec, lmCombW := t.p, &t.scr, t.lmDec, t.lmCombW
	B := len(programs)
	hid := p.cfg.HiddenDim
	h := g.NewTensor(B, hid)
	c := g.NewTensor(B, hid)

	T := 0
	sc.tgtLens = sc.tgtLens[:0]
	for _, prog := range programs {
		n := len(prog) + 1
		sc.tgtLens = append(sc.tgtLens, n)
		T = max(T, n)
	}
	prevIds := grow(&sc.prevIds, T*B)
	decActive := grow(&sc.decActive, T*B)
	vocabIdx := grow(&sc.vocabIdx, T*B)
	gradW := grow(&sc.gradW, T*B)
	nll := grow(&sc.nll, T*B)
	inv := 1 / float64(B)

	for t := 0; t < T; t++ {
		prev := prevIds[t*B : (t+1)*B]
		activeT := decActive[t*B : (t+1)*B : (t+1)*B]
		idxT := vocabIdx[t*B : (t+1)*B : (t+1)*B]
		wT := gradW[t*B : (t+1)*B : (t+1)*B]
		for b, prog := range programs {
			activeT[b] = t < sc.tgtLens[b]
			switch {
			case t == 0:
				prev[b] = BosID
			case t <= len(prog):
				prev[b] = p.tgt.ID(lmTok(prog, t-1))
			default:
				prev[b] = EosID
			}
			if t >= sc.tgtLens[b] {
				wT[b], idxT[b] = 0, 0
			} else {
				idxT[b] = p.tgt.ID(lmTok(prog, t))
				wT[b] = inv
			}
		}
		emb := g.LookupRows(p.decEmb.Table, prev)
		h, c = lmDec.StepBatch(g, emb, h, c, activeT)
		htilde := g.Tanh(g.BatchedAffine(h, lmCombW, p.combLin.B))
		pv := g.SoftmaxRows(g.BatchedAffine(htilde, p.outLin.W, p.outLin.B))
		g.NLLPointerMixBatch(pv, nil, onesGateBatch(g, B), nil, nil, nil, nil, idxT, wT, nll[t*B:(t+1)*B:(t+1)*B])
	}
	return sc.meanLoss(g, nll, B, T)
}

func lmTok(prog []string, t int) string {
	if t < len(prog) {
		return prog[t]
	}
	return EosToken
}
