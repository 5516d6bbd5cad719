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
// With Config.BatchSize > 1, fit and the LM pre-training process shuffled
// minibatches through the batched B×n kernels, one optimizer step per batch.
func Train(train, val []Pair, lmPrograms [][]string, cfg Config) *Parser {
	p := buildParser(train, lmPrograms, cfg)
	if p.cfg.PretrainLM && len(lmPrograms) > 0 {
		p.pretrainLM(lmPrograms)
	}
	p.fit(train, val)
	return p
}

// buildParser constructs the vocabularies and an untrained parser (shared by
// Train and NewTrainer).
func buildParser(train []Pair, lmPrograms [][]string, cfg Config) *Parser {
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
	src := BuildVocab(srcSeqs, 1)
	tgt := BuildVocab(tgtSeqs, cfg.MinVocabCount)
	return newParser(cfg, src, tgt)
}

func mergeDefaults(cfg Config) Config {
	d := DefaultConfig
	d.Seed = cfg.Seed
	d.BatchSize = cfg.BatchSize
	d.BucketByLength = cfg.BucketByLength
	return d
}

// Trainer exposes single-step teacher-forced training over a persistent
// arena graph: benchmarks and profiling drive Step or StepBatch directly to
// measure the steady state (near-zero allocations once the arena and scratch
// buffers are warm). It performs no shuffling, evaluation or early stopping
// — that orchestration stays in Train.
type Trainer struct {
	p      *Parser
	g      *nn.Graph
	opt    *nn.Adam
	params []*nn.Tensor
}

// NewTrainer builds the vocabularies and an untrained parser ready for
// stepwise training.
func NewTrainer(train []Pair, lmPrograms [][]string, cfg Config) *Trainer {
	p := buildParser(train, lmPrograms, cfg)
	return &Trainer{
		p:      p,
		g:      nn.NewGraphArena(true, nn.NewArena()),
		opt:    nn.NewAdam(p.cfg.LR),
		params: p.Params(),
	}
}

// Step is StepBatch over the one pair.
func (t *Trainer) Step(pair *Pair) float64 {
	return t.StepBatch([]Pair{*pair})
}

// StepBatch runs one forward/backward/update over a padded minibatch and
// returns the mean per-example loss; gradients average over the batch.
func (t *Trainer) StepBatch(pairs []Pair) float64 {
	t.g.Reset()
	l := t.p.lossBatch(t.g, pairs)
	t.g.Backward()
	t.opt.Step(t.params)
	return l
}

// Parser returns the underlying (partially trained) parser.
func (t *Trainer) Parser() *Parser { return t.p }

// pretrainLM trains the decoder as a ThingTalk language model: next-token
// prediction over synthesized programs, with zeroed attention context. The
// decoder embedding, LSTM and output projection carry over to parsing
// (Section 4.2). Each of the LMSteps optimizer steps runs lmLossBatch over
// one sampled program, or with BatchSize > 1 over one shuffled minibatch.
func (p *Parser) pretrainLM(programs [][]string) {
	opt := nn.NewAdam(p.cfg.LR)
	params := p.decParams()
	rng := rand.New(rand.NewSource(p.cfg.Seed + 101))
	g := nn.NewGraphArena(true, nn.NewArena())
	bs := max(1, p.cfg.BatchSize)
	batch := make([][]string, 0, bs)
	var order []int
	if bs > 1 {
		order = rng.Perm(len(programs))
	}
	pos := 0
	for s := 0; s < p.cfg.LMSteps; s++ {
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
		g.Reset()
		p.lmLossBatch(g, batch)
		g.Backward()
		opt.Step(params)
	}
}

// fit runs teacher-forced training with early stopping. All intermediate
// tensors of a step live in one arena recycled by Reset, so the steady-state
// step is allocation-free. Each optimizer step (and so each unit of
// MaxSteps/EvalEvery) covers one shuffled minibatch of BatchSize pairs.
func (p *Parser) fit(train, val []Pair) {
	// Without a checkpointer or context fitRun cannot fail.
	_ = p.fitRun(nil, train, val, nil, nil)
}

// fitRun is the fit loop with optional checkpointing (ck) and resume
// (resume, a validated checkpoint or nil) threaded through. Both the plain
// and the checkpointed run walk the identical trajectory: the RNG streams,
// shuffles and optimizer steps are the same whether or not state is being
// recorded, which is what makes a resumed run bit-identical to an
// uninterrupted one. ctx (nil = never canceled) stops training between
// batches after saving a final checkpoint, reported as ErrInterrupted.
func (p *Parser) fitRun(ctx context.Context, train, val []Pair, ck *checkpointer, resume *trainCheckpoint) error {
	opt := nn.NewAdam(p.cfg.LR)
	params := p.Params()
	fitSrc := newCountingSource(p.cfg.Seed + 202)
	rng := rand.New(fitSrc)
	g := nn.NewGraphArena(true, nn.NewArena())

	bestLoss := 1e18
	// best is allocated once at the first snapshot and copied into on every
	// later improvement (the parameter shapes never change mid-training).
	var best [][]float64
	evalEvery := p.cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 2000
	}
	badEvals := 0
	step := 0
	order := rng.Perm(len(train))
	var starts []int

	firstEpoch := 0
	startPos := 0
	if resume != nil {
		if err := resume.apply(p, opt, params, fitSrc, order); err != nil {
			return err
		}
		if resume.haveBest {
			best = copySlices(resume.best)
		}
		bestLoss = resume.bestLoss
		badEvals = resume.badEvals
		step = resume.step
		starts = append([]int(nil), resume.starts...)
		firstEpoch = resume.epoch
		startPos = resume.pos
	}
	resumedMidEpoch := resume != nil && resume.midEpoch

	snapshot := func() {
		if best == nil {
			best = make([][]float64, len(params))
			for i, t := range params {
				best[i] = make([]float64, len(t.W))
			}
		}
		for i, t := range params {
			copy(best[i], t.W)
		}
	}
	restore := func() {
		if best == nil {
			return
		}
		for i, t := range params {
			copy(t.W, best[i])
		}
	}
	// restoreIfBetter rolls back to the snapshot when the final weights score
	// no better on validation. Without a snapshot there is nothing to roll
	// back to, so the validation pass is skipped (valLoss draws no randomness,
	// so skipping it moves no weight).
	restoreIfBetter := func() {
		if best == nil || len(val) == 0 {
			return
		}
		if p.valLoss(val) >= bestLoss {
			restore()
		}
	}
	// afterStep does the per-optimizer-step bookkeeping (step cap, periodic
	// eval, early stopping) and reports whether training should stop.
	afterStep := func() bool {
		step++
		if p.cfg.MaxSteps > 0 && step >= p.cfg.MaxSteps {
			restoreIfBetter()
			return true
		}
		if len(val) > 0 && step%evalEvery == 0 {
			vl := p.valLoss(val)
			if vl < bestLoss {
				bestLoss = vl
				badEvals = 0
				snapshot()
			} else {
				badEvals++
				if p.cfg.Patience > 0 && badEvals >= p.cfg.Patience {
					restore()
					return true
				}
			}
		}
		return false
	}
	save := func(epoch, pos int, midEpoch bool) {
		if ck == nil {
			return
		}
		ck.save(captureCheckpoint(p, opt, params, fitSrc, epoch, pos, midEpoch, step, bestLoss, badEvals, best, order, starts))
	}

	bs := max(1, p.cfg.BatchSize)
	if p.ctxCell != nil {
		// Contextual training runs one pair per batch. A batch mixing first
		// turns with follow-ups would run the context head for all of them,
		// the first turns over an empty memory, where a lone first turn takes
		// the single-turn step: batching them is a numerics change of its
		// own.
		bs = 1
	}
	// BucketByLength only applies to real minibatches; with bs 1 batchStarts
	// degenerates to 0,1,2,... and draws nothing from rng.
	bucket := p.cfg.BucketByLength && bs > 1
	batch := make([]Pair, 0, bs)
	if ck != nil && resume == nil {
		// The initial checkpoint pins the post-LM weights so a resumed run
		// never repeats LM pre-training.
		save(0, 0, false)
	}
	for epoch := firstEpoch; epoch < max(1, p.cfg.Epochs); epoch++ {
		pos0 := 0
		if resumedMidEpoch {
			// order and starts came from the checkpoint; re-enter this epoch
			// at the saved batch without re-drawing the shuffle.
			pos0 = startPos
			resumedMidEpoch = false
		} else {
			if epoch != firstEpoch {
				// Finished the previous epoch in this process: boundary
				// checkpoint, taken before the shuffle so a resume replays it.
				save(epoch, 0, false)
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			starts = batchStarts(starts[:0], train, order, bs, bucket, rng)
		}
		for bi := pos0; bi < len(starts); bi++ {
			if ctx != nil && ctx.Err() != nil {
				// This epoch's shuffle has already been drawn, so the
				// checkpoint is mid-epoch even at bi == 0.
				save(epoch, bi, true)
				return fmt.Errorf("%w before epoch %d batch %d: %v", ErrInterrupted, epoch, bi, ctx.Err())
			}
			start := starts[bi]
			batch = batch[:0]
			for _, idx := range order[start:min(start+bs, len(order))] {
				batch = append(batch, train[idx])
			}
			g.Reset()
			p.lossBatch(g, batch)
			g.Backward()
			opt.Step(params)
			if afterStep() {
				return nil
			}
			if ck != nil && ck.every > 0 && step%ck.every == 0 {
				save(epoch, bi+1, true)
			}
		}
	}
	restoreIfBetter()
	return nil
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
func (p *Parser) valLoss(val []Pair) float64 {
	n := min(len(val), 200)
	total := 0.0
	if p.valG == nil {
		p.valG = nn.NewGraphArena(false, nn.NewArena())
	}
	for i := 0; i < n; i++ {
		p.valG.Reset()
		total += p.lossBatch(p.valG, val[i:i+1])
	}
	return total / float64(n)
}
