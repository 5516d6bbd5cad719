package model

import "repro/internal/nn"

// This file is the padded-minibatch training path: B examples stacked into
// B×n tensors and pushed through the batched kernels of internal/nn in one
// forward/backward per optimizer step. Padding scheme: each batch pads to
// its longest source (and target) sequence; encoder steps past a sequence's
// end carry state through unchanged (row-active masks), attention masks
// scores to each sequence's valid prefix, and loss rows past a target's end
// get a zero gradient scale, so padding never contributes probability mass
// or gradient. Per example the arithmetic matches the single-example path
// exactly: lossBatch over one pair follows the same compute order as loss.

// batchBufs holds the padded source-side buffers of one batched encoder
// pass, reused across steps (training owns one inside batchScratch; every
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

// releaseTensors zeroes the retained tensor pointers (full capacity; see
// encBufs.releaseTensors) when a pooled batch decode context's graph lease
// ends. The id/length/mask buffers carry no arena memory and are reused.
func (bb *batchBufs) releaseTensors() {
	clearTensorBuf(bb.embs)
	clearTensorBuf(bb.fhs)
	clearTensorBuf(bb.bhs)
	clearTensorBuf(bb.rows)
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
// prepareSrc), returning the packed padded memory ((B*S)×2h, one S-row block
// per sequence) and the concatenated final states (B×2h). Rows past a
// sequence's end carry LSTM state through unchanged, so each row's final
// state and memory rows are identical to a single-example encode call.
//
//genielint:returns-arena
func (p *Parser) encodeBatch(g *nn.Graph, bb *batchBufs, B, S int) (H, final *nn.Tensor) {
	h := p.cfg.HiddenDim
	embs := grow(&bb.embs, S)
	for i := 0; i < S; i++ {
		embs[i] = g.Dropout(g.LookupRows(p.encEmb.Table, bb.srcIds[i*B:(i+1)*B]), p.cfg.Dropout, p.rng)
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
func (p *Parser) encodeCtxBatch(g *nn.Graph, bb *batchBufs, B, M int) *nn.Tensor {
	hid := p.cfg.HiddenDim
	embs := grow(&bb.embs, M)
	for i := 0; i < M; i++ {
		embs[i] = g.Dropout(g.LookupRows(p.decEmb.Table, bb.srcIds[i*B:(i+1)*B]), p.cfg.Dropout, p.rng)
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

// batchScratch holds the decoder-side per-step buffers of lossBatch and
// lmLossBatch, reused across training steps. Slices handed to tape records
// (prev ids, copy masks, vocab indices, gradient scales) are positioned out
// of per-step backings so every record gets a distinct sub-slice.
type batchScratch struct {
	batchBufs
	srcView   [][]string
	tgtLens   []int
	prevIds   []int
	decActive []bool // position-major decoder row-active masks (T*B)
	vocabIdx  []int
	gradW     []float64
	copyMasks [][]bool
	maskBuf   []bool
	nll       []float64
	perEx     []float64
}

// onesGateBatch is onesGate for B rows: a constant gate of 1 per row (pure
// generation, the -pointer ablation).
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
// losses (what averaging B loss calls would report). Gradients are scaled
// 1/B per example — the mean of the per-example gradients the single path
// produces — so at B=1 the update matches loss exactly.
func (p *Parser) lossBatch(g *nn.Graph, pairs []Pair) float64 {
	B := len(pairs)
	sc := &p.bscr
	sc.srcView = sc.srcView[:0]
	for i := range pairs {
		sc.srcView = append(sc.srcView, pairs[i].Src)
	}
	S := sc.prepareSrc(p.src, sc.srcView)
	H, final := p.encodeBatch(g, &sc.batchBufs, B, S)

	hid := p.cfg.HiddenDim
	h := g.Tanh(g.BatchedAffine(final, p.initLin.W, p.initLin.B))
	c := g.NewTensor(B, hid)
	ctx := g.NewTensor(B, 2*hid)

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
	copyMasks := grow(&sc.copyMasks, T*B)
	nll := grow(&sc.nll, B)
	perEx := grow(&sc.perEx, B)
	for b := range perEx {
		perEx[b] = 0
	}
	mb := sc.maskBuf[:0]
	inv := 1 / float64(B)

	for t := 0; t < T; t++ {
		prev := prevIds[t*B : (t+1)*B]
		// Rows whose target ended before step t carry their decoder state
		// through (no LSTM work) and get a zero gradient scale below, so a
		// short example costs only its own steps.
		activeT := decActive[t*B : (t+1)*B : (t+1)*B]
		masksT := copyMasks[t*B : (t+1)*B : (t+1)*B]
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
		emb := g.LookupRows(p.decEmb.Table, prev)
		x := g.ConcatCols(emb, ctx)
		h, c = p.dec.StepBatch(g, x, h, c, activeT)
		q := g.BatchedAffine(h, p.attnLin.W, p.attnLin.B)
		alpha, ctxN := g.AttendSoftmaxContextBatch(q, H, nil, sc.lens)
		htilde := g.Tanh(g.BatchedAffine(g.ConcatCols(h, ctxN), p.combLin.W, p.combLin.B))
		htilde = g.Dropout(htilde, p.cfg.Dropout, p.rng)
		pv := g.SoftmaxRows(g.BatchedAffine(htilde, p.outLin.W, p.outLin.B))
		gate := g.Sigmoid(g.BatchedAffine(htilde, p.gateLin.W, p.gateLin.B))

		for b := range pairs {
			if t >= sc.tgtLens[b] {
				wT[b], masksT[b], idxT[b] = 0, nil, 0
				continue
			}
			tok := targetTok(&pairs[b], t)
			vi := -1
			if p.tgt.Has(tok) {
				vi = p.tgt.ID(tok)
			}
			if p.cfg.PointerGen {
				start := len(mb)
				for _, s := range pairs[b].Src {
					mb = append(mb, s == tok)
				}
				masksT[b] = mb[start:len(mb):len(mb)]
			} else {
				masksT[b] = nil
				if vi < 0 {
					vi = UnkID
				}
			}
			idxT[b] = vi
			wT[b] = inv
		}
		nllGate := gate
		if !p.cfg.PointerGen {
			nllGate = onesGateBatch(g, B)
		}
		g.NLLPointerMixBatch(pv, alpha, nllGate, masksT, idxT, wT, nll)
		for b := range perEx {
			perEx[b] += nll[b]
		}
		ctx = ctxN
	}
	sc.maskBuf = mb

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
// averaged over the minibatch like lossBatch. It is the batched form of the
// per-program pass in pretrainLM.
func (p *Parser) lmLossBatch(g *nn.Graph, programs [][]string) float64 {
	B := len(programs)
	sc := &p.bscr
	hid := p.cfg.HiddenDim
	h := g.NewTensor(B, hid)
	c := g.NewTensor(B, hid)
	ctx := g.NewTensor(B, 2*hid)

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
	nll := grow(&sc.nll, B)
	perEx := grow(&sc.perEx, B)
	for b := range perEx {
		perEx[b] = 0
	}
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
		x := g.ConcatCols(emb, ctx)
		h, c = p.dec.StepBatch(g, x, h, c, activeT)
		htilde := g.Tanh(g.BatchedAffine(g.ConcatCols(h, ctx), p.combLin.W, p.combLin.B))
		pv := g.SoftmaxRows(g.BatchedAffine(htilde, p.outLin.W, p.outLin.B))
		g.NLLPointerMixBatch(pv, nil, onesGateBatch(g, B), nil, idxT, wT, nll)
		for b := range perEx {
			perEx[b] += nll[b]
		}
	}

	total := 0.0
	for b := range perEx {
		total += perEx[b] / float64(sc.tgtLens[b])
	}
	return total / float64(B)
}

func lmTok(prog []string, t int) string {
	if t < len(prog) {
		return prog[t]
	}
	return EosToken
}
