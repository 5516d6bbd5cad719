package model

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
)

// Train builds vocabularies, optionally pre-trains the decoder language
// model on lmPrograms (synthesized program token sequences), then trains the
// parser with teacher forcing, Adam, and early stopping on validation loss.
// With Config.BatchSize > 1, training and the LM pre-training process
// shuffled minibatches through the batched B×n kernels, one optimizer step
// per batch.
func Train(train, val []Pair, lmPrograms [][]string, cfg Config) *Parser {
	t := NewTrainer(train, lmPrograms, cfg)
	// Without a context or a checkpointer the run cannot fail.
	_ = t.run(nil, train, val, lmPrograms, nil, false)
	return t.p
}

func mergeDefaults(cfg Config) Config {
	d := DefaultConfig
	d.Seed = cfg.Seed
	d.BatchSize = cfg.BatchSize
	d.BucketByLength = cfg.BucketByLength
	d.Contextual = cfg.Contextual
	return d
}

// Trainer owns all training state, so the Parser it trains holds only what a
// snapshot holds. Train and TrainResumable run whole trainings through it:
// LM pre-training, shuffled epochs, periodic evaluation, early stopping and
// checkpoints. Benchmarks and profiling drive Step or StepBatch directly to
// measure the steady state (near-zero allocations once the arena and scratch
// buffers are warm). Every optimizer step of either kind goes through step.
type Trainer struct {
	p    *Parser
	g    *nn.Graph    // the training graph; its arena is recycled every step
	valG *nn.Graph    // validation graph, built at the first evaluation
	scr  batchScratch // loss buffers (batch.go)

	// drop draws the dropout masks, continuing the stream the parser's base
	// weights were initialised from; shuffle draws each epoch's example and
	// batch order. A checkpoint records both positions.
	drop, shuffle       *rand.Rand
	dropSrc, shuffleSrc *countingSource

	opt      *nn.Adam // over params, every weight of the parser
	params   []*nn.Tensor
	lmOpt    *nn.Adam // over lmParams, the decoder's weights, in LM pre-training
	lmParams []*nn.Tensor
	// lmDec and lmCombW are the decoder LSTM with Wx's first EmbedDim rows
	// and combLin.W's first HiddenDim rows: what LM pre-training steps
	// through, without the rows that read the attention context.
	lmDec   *nn.LSTMCell
	lmCombW *nn.Tensor

	loop loopState
}

// loopState is where the training loop stands and its early-stopping state;
// with the weights, the Adam moments and the two streams' positions, it is
// what a checkpoint records.
type loopState struct {
	epoch    int  // current epoch
	pos      int  // next batch, an offset into starts
	midEpoch bool // this epoch's order and starts are drawn
	step     int  // optimizer steps taken
	bestLoss float64
	badEvals int
	best     [][]float64 // early-stopping weight snapshot, nil before the first
	order    []int       // the example order, reshuffled every epoch
	starts   []int       // this epoch's batch offsets into order
}

// NewTrainer builds the vocabularies and an untrained parser ready for
// stepwise training.
func NewTrainer(train []Pair, lmPrograms [][]string, cfg Config) *Trainer {
	if cfg.EmbedDim == 0 {
		cfg = mergeDefaults(cfg)
	}
	srcSeqs := make([][]string, len(train))
	tgtSeqs := make([][]string, len(train))
	for i := range train {
		srcSeqs[i] = train[i].Src
		tgtSeqs[i] = train[i].Tgt
	}
	// The decoder vocabulary also covers the LM corpus so pre-training and
	// fine-tuning share token ids.
	tgtSeqs = append(tgtSeqs, lmPrograms...)
	t := &Trainer{
		g:          nn.NewGraphArena(true, nn.NewArena()),
		dropSrc:    newCountingSource(cfg.Seed),
		shuffleSrc: newCountingSource(cfg.Seed + 202),
		opt:        nn.NewAdam(cfg.LR),
		lmOpt:      nn.NewAdam(cfg.LR),
	}
	t.drop, t.shuffle = rand.New(t.dropSrc), rand.New(t.shuffleSrc)
	t.p = newParser(cfg, BuildVocab(srcSeqs, 1), BuildVocab(tgtSeqs, cfg.MinVocabCount), t.drop)
	t.params, t.lmParams = t.p.Params(), t.p.decParams()
	lmDec := *t.p.dec
	lmDec.Wx = t.p.dec.Wx.RowPrefix(cfg.EmbedDim)
	t.lmDec, t.lmCombW = &lmDec, t.p.combLin.W.RowPrefix(cfg.HiddenDim)
	t.loop = loopState{bestLoss: 1e18, order: t.shuffle.Perm(len(train))}
	return t
}

// Step is StepBatch over the one pair.
func (t *Trainer) Step(pair *Pair) float64 {
	return t.StepBatch([]Pair{*pair})
}

// StepBatch runs one forward/backward/update over a padded minibatch and
// returns the mean per-example loss; gradients average over the batch.
func (t *Trainer) StepBatch(pairs []Pair) float64 {
	return t.step(pairs, nil)
}

// step is every optimizer step: reset the graph, build the loss of pairs —
// or, in LM pre-training, of programs — backpropagate, and update the
// weights that loss trains.
func (t *Trainer) step(pairs []Pair, programs [][]string) float64 {
	opt, params := t.opt, t.params
	var loss float64
	if programs != nil {
		opt, params = t.lmOpt, t.lmParams
		t.g.ResetStep(len(programs))
		loss = t.lmLossBatch(t.g, programs)
	} else {
		t.g.ResetStep(len(pairs))
		loss = t.lossBatch(t.g, pairs)
	}
	t.g.BackwardStep(opt, params)
	return loss
}

// Parser returns the underlying (partially trained) parser.
func (t *Trainer) Parser() *Parser { return t.p }

// pretrainLM trains the decoder as a ThingTalk language model: next-token
// prediction over synthesized programs, with zeroed attention context. The
// decoder embedding, LSTM and output projection carry over to parsing
// (Section 4.2). Each of the LMSteps optimizer steps runs lmLossBatch over
// one sampled program, or with BatchSize > 1 over one shuffled minibatch.
func (t *Trainer) pretrainLM(programs [][]string) {
	cfg := t.p.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	bs := max(1, cfg.BatchSize)
	batch := make([][]string, 0, bs)
	var order []int
	if bs > 1 {
		order = rng.Perm(len(programs))
	}
	pos := 0
	for s := 0; s < cfg.LMSteps; s++ {
		batch = batch[:0]
		if bs == 1 {
			batch = append(batch, programs[rng.Intn(len(programs))])
		}
		for len(batch) < bs {
			if pos == len(order) {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				pos = 0
			}
			batch = append(batch, programs[order[pos]])
			pos++
		}
		t.step(nil, batch)
	}
}

// run is a whole training from t.loop: LM pre-training, unless resumed (a
// checkpoint's weights already hold it), then epochs of shuffled minibatches
// with periodic evaluation and early stopping on val. Each optimizer step
// (and so each unit of MaxSteps/EvalEvery) covers one minibatch of BatchSize
// pairs. A checkpointed run walks the identical trajectory: the streams,
// shuffles and optimizer steps are the same whether or not state is being
// recorded, which is what makes a resumed run bit-identical to an
// uninterrupted one. ck (nil = none) checkpoints at every epoch boundary the
// run crosses — the first pins the post-LM weights, so a resumed run never
// repeats LM pre-training — and every ck.every steps. ctx (nil = never
// canceled) stops training between batches after saving a final checkpoint,
// reported as ErrInterrupted.
func (t *Trainer) run(ctx context.Context, train, val []Pair, lmPrograms [][]string, ck *checkpointer, resumed bool) error {
	cfg := t.p.cfg
	if !resumed && cfg.PretrainLM && len(lmPrograms) > 0 {
		t.pretrainLM(lmPrograms)
	}
	bs := max(1, cfg.BatchSize)
	if t.p.ctxCell != nil {
		// Contextual training runs one pair per batch. A batch mixing first
		// turns with follow-ups would run the context head for all of them,
		// the first turns over an empty memory, where a lone first turn takes
		// the single-turn step: batching them is a numerics change of its
		// own.
		bs = 1
	}
	// BucketByLength only applies to real minibatches; with bs 1 batchStarts
	// degenerates to 0,1,2,... and draws nothing from the shuffle stream.
	bucket := cfg.BucketByLength && bs > 1
	batch := make([]Pair, 0, bs)
	l := &t.loop
	// A resumed run does not save again the checkpoint it resumed from.
	boundary := !resumed
	for ; l.epoch < max(1, cfg.Epochs); l.epoch++ {
		if !l.midEpoch {
			if boundary {
				// Taken before the shuffle, so a resume replays it.
				ck.save(t)
			}
			t.shuffle.Shuffle(len(l.order), func(i, j int) { l.order[i], l.order[j] = l.order[j], l.order[i] })
			l.starts = batchStarts(l.starts[:0], train, l.order, bs, bucket, t.shuffle)
			l.midEpoch = true
		}
		boundary = true
		for l.pos < len(l.starts) {
			if ctx != nil && ctx.Err() != nil {
				// This epoch's shuffle has already been drawn, so the
				// checkpoint is mid-epoch even at batch 0.
				ck.save(t)
				return fmt.Errorf("%w before epoch %d batch %d: %v", ErrInterrupted, l.epoch, l.pos, ctx.Err())
			}
			start := l.starts[l.pos]
			batch = batch[:0]
			for _, idx := range l.order[start:min(start+bs, len(l.order))] {
				batch = append(batch, train[idx])
			}
			t.StepBatch(batch)
			l.pos++
			if t.afterStep(val) {
				return nil
			}
			if ck != nil && ck.every > 0 && l.step%ck.every == 0 {
				ck.save(t)
			}
		}
		l.pos, l.midEpoch = 0, false
	}
	t.restoreIfBetter(val)
	return nil
}

// afterStep counts an optimizer step, does its bookkeeping (step cap,
// periodic evaluation, early stopping) and reports whether training stops.
func (t *Trainer) afterStep(val []Pair) bool {
	cfg, l := t.p.cfg, &t.loop
	l.step++
	if cfg.MaxSteps > 0 && l.step >= cfg.MaxSteps {
		t.restoreIfBetter(val)
		return true
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 2000
	}
	if len(val) == 0 || l.step%evalEvery != 0 {
		return false
	}
	if vl := t.valLoss(val); vl < l.bestLoss {
		l.bestLoss, l.badEvals = vl, 0
		// The snapshot is allocated once and copied into on every later
		// improvement (the parameter shapes never change mid-training).
		if l.best == nil {
			l.best = make([][]float64, len(t.params))
			for i, p := range t.params {
				l.best[i] = make([]float64, len(p.W))
			}
		}
		for i, p := range t.params {
			copy(l.best[i], p.W)
		}
		return false
	}
	l.badEvals++
	if cfg.Patience > 0 && l.badEvals >= cfg.Patience {
		t.restoreBest()
		return true
	}
	return false
}

// restoreBest rolls the weights back to the early-stopping snapshot, if
// there is one.
func (t *Trainer) restoreBest() {
	for i, w := range t.loop.best {
		copy(t.params[i].W, w)
	}
}

// restoreIfBetter rolls back to the snapshot when the final weights score no
// better on validation. Without a snapshot there is nothing to roll back to,
// so the validation pass is skipped (valLoss draws no randomness, so skipping
// it moves no weight).
func (t *Trainer) restoreIfBetter(val []Pair) {
	if t.loop.best != nil && len(val) > 0 && t.valLoss(val) >= t.loop.bestLoss {
		t.restoreBest()
	}
}

// batchStarts returns this epoch's minibatch start offsets into order.
// Without bucketing that is just 0, bs, 2bs, ... — the pre-existing
// sequential cut. With bucketing, the shuffled order is first stably sorted
// by example length (so equal-length examples keep their shuffled relative
// order and batches pad to near-uniform lengths), then the batch *order* is
// reshuffled so the optimizer still sees short and long batches interleaved
// rather than a length curriculum.
func batchStarts(starts []int, train []Pair, order []int, bs int, bucket bool, rng *rand.Rand) []int {
	if bucket {
		sort.SliceStable(order, func(i, j int) bool {
			return pairLen(&train[order[i]]) < pairLen(&train[order[j]])
		})
	}
	for start := 0; start < len(order); start += bs {
		starts = append(starts, start)
	}
	if bucket {
		rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	}
	return starts
}

// pairLen is the bucketing key: a batch's padded cost grows with both its
// longest source and its longest target, so examples sort by the sum.
func pairLen(p *Pair) int { return len(p.Src) + len(p.Tgt) }

// PaddingFraction reports the fraction of padded batch rows×positions that
// are padding when order is cut into minibatches of bs (source and target
// sides combined). It quantifies what BucketByLength saves; exported for
// tests and EXPERIMENTS.md bookkeeping.
func PaddingFraction(train []Pair, order []int, bs int) float64 {
	padded, real := 0, 0
	for start := 0; start < len(order); start += bs {
		end := min(start+bs, len(order))
		maxS, maxT := 0, 0
		for _, idx := range order[start:end] {
			maxS = max(maxS, len(train[idx].Src))
			maxT = max(maxT, len(train[idx].Tgt)+1)
			real += len(train[idx].Src) + len(train[idx].Tgt) + 1
		}
		padded += (end - start) * (maxS + maxT)
	}
	if padded == 0 {
		return 0
	}
	return 1 - float64(real)/float64(padded)
}

// valLoss measures teacher-forced loss on (a sample of) the validation set.
func (t *Trainer) valLoss(val []Pair) float64 {
	n := min(len(val), 200)
	total := 0.0
	if t.valG == nil {
		t.valG = nn.NewGraphArena(false, nn.NewArena())
	}
	for i := 0; i < n; i++ {
		t.valG.Reset()
		total += t.lossBatch(t.valG, val[i:i+1])
	}
	return total / float64(n)
}
