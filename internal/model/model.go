package model

import (
	"math/rand"

	"repro/internal/grammar"
	"repro/internal/nn"
	"repro/internal/params"
)

// Config holds the hyperparameters of the parser (Section 4.3, scaled for
// CPU training).
type Config struct {
	EmbedDim  int
	HiddenDim int
	LR        float64
	Dropout   float64
	// Epochs and MaxSteps bound training (whichever is hit first; MaxSteps
	// 0 means unbounded).
	Epochs   int
	MaxSteps int
	// EvalEvery steps, validation loss is measured for early stopping;
	// Patience evaluations without improvement stop training.
	EvalEvery int
	Patience  int
	// PointerGen enables the mixed pointer-generator output (disabling it
	// leaves pure vocabulary generation; free-form parameters then cannot
	// be copied).
	PointerGen bool
	// PretrainLM pre-trains the decoder as a ThingTalk language model on
	// the provided program token sequences before parser training
	// (Section 4.2).
	PretrainLM bool
	LMSteps    int
	// BatchSize is the training minibatch width: fit and pretrainLM process
	// shuffled minibatches of this many examples per optimizer step through
	// the batched B×n kernels, padding each batch to its longest sequence.
	// 0 or 1 keeps the original per-example path (identical trajectories).
	BatchSize int
	// BucketByLength sorts each epoch's shuffled examples by length before
	// cutting minibatches (batch order reshuffled afterwards), so a batch
	// pads to near-uniform sequence lengths and the padded B×n kernels waste
	// far fewer rows on padding. Only consulted when BatchSize > 1; the B=1
	// trajectory is untouched.
	BucketByLength bool
	// MaxDecodeLen bounds greedy decoding.
	MaxDecodeLen int
	// MinVocabCount is the threshold for target vocabulary membership;
	// rarer tokens must be copied.
	MinVocabCount int
	// Contextual adds the multi-turn context encoder: the previous turn's
	// program tokens become a second attended memory with its own pointer
	// head, so follow-up commands can copy arguments from the prior program.
	// Parsers with Contextual false (and contextual parsers decoding an
	// empty context) walk exactly the single-turn graph: the context layers
	// draw their initial weights from a separate derived RNG stream, so the
	// base parameters and the training dropout stream are bit-identical to a
	// non-contextual parser with the same seed.
	Contextual bool
	Seed       int64
}

// DefaultConfig is the configuration used by the experiment harness at test
// scale.
var DefaultConfig = Config{
	EmbedDim:      48,
	HiddenDim:     64,
	LR:            2e-3,
	Dropout:       0.1,
	Epochs:        4,
	EvalEvery:     2000,
	Patience:      4,
	PointerGen:    true,
	PretrainLM:    true,
	LMSteps:       3000,
	MaxDecodeLen:  64,
	MinVocabCount: 2,
}

// maxDecodeLen returns the decode-length bound: MaxDecodeLen when set, else
// DefaultConfig's. Parse and ParseBeam both use it, so the fallback cannot
// drift between the two decode paths.
func (c Config) maxDecodeLen() int {
	if c.MaxDecodeLen > 0 {
		return c.MaxDecodeLen
	}
	return DefaultConfig.MaxDecodeLen
}

// Pair is one training example: a tokenized sentence and the target program
// token sequence. Ctx optionally carries the previous turn's program tokens
// for contextual training; it is ignored (and must be empty for bit-parity
// with single-turn training) unless Config.Contextual is set.
type Pair struct {
	Src []string
	Tgt []string
	Ctx []string
}

// Parser is the trained semantic parser.
type Parser struct {
	cfg Config
	src *Vocab
	tgt *Vocab

	encEmb *nn.Embedding
	fwd    *nn.LSTMCell
	bwd    *nn.LSTMCell

	decEmb  *nn.Embedding
	dec     *nn.LSTMCell
	initLin *nn.Linear // enc final states -> dec initial hidden
	attnLin *nn.Linear // dec hidden -> enc space (2h)
	combLin *nn.Linear // [h; ctx] -> h (the attentional h-tilde)
	outLin  *nn.Linear // h-tilde -> target vocab
	gateLin *nn.Linear // h-tilde -> pointer/generator gate

	// Context-encoder layers (Config.Contextual only, nil otherwise): the
	// previous turn's program tokens, embedded through decEmb, run through
	// ctxCell into an m×h memory attended by a second head.
	ctxCell    *nn.LSTMCell // program-token encoder (e -> h)
	ctxAttnLin *nn.Linear   // h-tilde -> ctx space (h)
	ctxCombLin *nn.Linear   // [h-tilde; cctx] -> h
	ctxGateLin *nn.Linear   // h2 -> context-copy gate

	rng    *rand.Rand
	rngSrc *countingSource // rng's source; draw position checkpointed by TrainResumable
	scr    scratch
	bscr   batchScratch // batched-loss buffers (batch.go); training goroutine only
	valG   *nn.Graph    // lazily built inference graph reused across valLoss calls
	meta   SnapshotMeta // provenance stamped into snapshots (snapshot.go)

	// Constrained decoding and adaptive serving (grammar.go): the grammar
	// spec the parser was trained against, its automaton compiled for this
	// target vocabulary (nil decodes unmasked), and the fitted confidence
	// threshold. Set before serving begins; decode paths read them without
	// locking.
	gspec *grammar.Spec
	auto  *grammar.Automaton
	calib Calibration
}

// scratch holds per-step buffers reused across training steps so that a
// steady-state step performs no slice allocation. It is owned by the single
// training goroutine: a Parser is not safe for concurrent *training*, but
// decoding never touches it — Parse/ParseBeam draw their state from pooled
// per-call decode contexts (decode.go), so one trained Parser serves any
// number of goroutines.
type scratch struct {
	enc     encBufs
	cenc    ctxBufs
	srcIds  []int
	ctxIds  []int
	target  []string
	maskBuf []bool
}

// encBufs holds the per-position tensor slices of one encoder pass. Training
// reuses the parser's copy (inside scratch); every decode call has its own
// (inside its decodeCtx), which is what makes inference concurrency-safe.
//
//genielint:arena-scoped
type encBufs struct {
	embs []*nn.Tensor
	fhs  []*nn.Tensor
	bhs  []*nn.Tensor
	rows []*nn.Tensor
}

// releaseTensors zeroes the retained tensor pointers — full capacity, not
// just the last call's length, because grow reslices without clearing — so a
// pooled decode context releases its arena tensors when its graph lease
// ends.
func (e *encBufs) releaseTensors() {
	clearTensorBuf(e.embs)
	clearTensorBuf(e.fhs)
	clearTensorBuf(e.bhs)
	clearTensorBuf(e.rows)
}

func clearTensorBuf(ts []*nn.Tensor) {
	clear(ts[:cap(ts)])
}

// ctxBufs holds the per-position tensor slices of one context-encoder pass,
// mirroring encBufs for the (unidirectional) previous-program encoder.
//
//genielint:arena-scoped
type ctxBufs struct {
	embs []*nn.Tensor
	hs   []*nn.Tensor
	rows []*nn.Tensor
}

func (c *ctxBufs) releaseTensors() {
	clearTensorBuf(c.embs)
	clearTensorBuf(c.hs)
	clearTensorBuf(c.rows)
}

// grow returns a length-n slice backed by *buf, growing it as needed; the
// training and decode loops use it to position tape-retained slices out of
// one reusable backing per step.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, n+n/2)
	}
	*buf = (*buf)[:n]
	return *buf
}

// countingSource wraps the stdlib RNG source and counts draws, so a training
// checkpoint can record the stream position and a resumed run can fast-forward
// to it — the resumed trajectory consumes the identical value sequence an
// uninterrupted run would have.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// forwardTo burns draws until the source has produced n values. Int63 and
// Uint64 advance the underlying stdlib source by exactly one step each
// (Int63 is Uint64 masked), so replaying the count restores the position
// regardless of which mix of calls produced it.
func (c *countingSource) forwardTo(n uint64) {
	for c.n < n {
		c.Uint64()
	}
}

func newParser(cfg Config, src, tgt *Vocab) *Parser {
	csrc := newCountingSource(cfg.Seed)
	rng := rand.New(csrc)
	e, h := cfg.EmbedDim, cfg.HiddenDim
	p := &Parser{
		cfg:     cfg,
		src:     src,
		tgt:     tgt,
		encEmb:  nn.NewEmbedding(src.Size(), e, rng),
		fwd:     nn.NewLSTMCell(e, h, rng),
		bwd:     nn.NewLSTMCell(e, h, rng),
		decEmb:  nn.NewEmbedding(tgt.Size(), e, rng),
		dec:     nn.NewLSTMCell(e+2*h, h, rng),
		initLin: nn.NewLinear(2*h, h, rng),
		attnLin: nn.NewLinear(h, 2*h, rng),
		combLin: nn.NewLinear(3*h, h, rng),
		outLin:  nn.NewLinear(h, tgt.Size(), rng),
		gateLin: nn.NewLinear(h, 1, rng),
		rng:     rng,
		rngSrc:  csrc,
	}
	if cfg.Contextual {
		// A separate derived stream keeps the base init draws — and with
		// them the subsequent training dropout stream positions — identical
		// to a non-contextual parser with the same seed.
		crng := rand.New(rand.NewSource(params.DeriveSeed(cfg.Seed, "ctx-encoder", 0)))
		p.ctxCell = nn.NewLSTMCell(e, h, crng)
		p.ctxAttnLin = nn.NewLinear(h, h, crng)
		p.ctxCombLin = nn.NewLinear(2*h, h, crng)
		p.ctxGateLin = nn.NewLinear(h, 1, crng)
	}
	return p
}

// Params returns all trainable tensors. Context-encoder parameters (when
// present) come last, so the snapshot tensor order of a non-contextual
// parser is a prefix of the contextual one.
func (p *Parser) Params() []*nn.Tensor {
	var out []*nn.Tensor
	out = append(out, p.encEmb.Params()...)
	out = append(out, p.fwd.Params()...)
	out = append(out, p.bwd.Params()...)
	out = append(out, p.decParams()...)
	if p.ctxCell != nil {
		out = append(out, p.ctxCell.Params()...)
		out = append(out, p.ctxAttnLin.Params()...)
		out = append(out, p.ctxCombLin.Params()...)
		out = append(out, p.ctxGateLin.Params()...)
	}
	return out
}

// decParams are the parameters shared with the pre-trained language model.
func (p *Parser) decParams() []*nn.Tensor {
	var out []*nn.Tensor
	out = append(out, p.decEmb.Params()...)
	out = append(out, p.dec.Params()...)
	out = append(out, p.initLin.Params()...)
	out = append(out, p.attnLin.Params()...)
	out = append(out, p.combLin.Params()...)
	out = append(out, p.outLin.Params()...)
	out = append(out, p.gateLin.Params()...)
	return out
}

// encode runs the bidirectional encoder, returning the memory matrix
// (len×2h) and the concatenated final states (1×2h). The per-position
// tensor slices come from the caller's encBufs and are valid until the next
// encode call over the same bufs (the graph's tape only retains the rows
// slice until Backward/Reset, which always precedes the next step).
//
//genielint:returns-arena
func (p *Parser) encode(g *nn.Graph, enc *encBufs, srcIds []int) (H *nn.Tensor, final *nn.Tensor) {
	n := len(srcIds)
	embs := grow(&enc.embs, n)
	for i, id := range srcIds {
		embs[i] = g.Dropout(p.encEmb.Lookup(g, id), p.cfg.Dropout, p.rng)
	}
	fh, fc := p.fwd.ZeroState(g)
	fhs := grow(&enc.fhs, n)
	for i := 0; i < n; i++ {
		fh, fc = p.fwd.Step(g, embs[i], fh, fc)
		fhs[i] = fh
	}
	bh, bc := p.bwd.ZeroState(g)
	bhs := grow(&enc.bhs, n)
	for i := n - 1; i >= 0; i-- {
		bh, bc = p.bwd.Step(g, embs[i], bh, bc)
		bhs[i] = bh
	}
	rows := grow(&enc.rows, n)
	for i := 0; i < n; i++ {
		rows[i] = g.ConcatRow(fhs[i], bhs[i])
	}
	H = g.RowsToMatrix(rows)
	final = g.ConcatRow(fh, bh)
	return H, final
}

// decodeState carries the decoder recurrence.
//
//genielint:arena-scoped
type decodeState struct {
	h, c *nn.Tensor
	ctx  *nn.Tensor
}

//genielint:returns-arena
func (p *Parser) initDecode(g *nn.Graph, final *nn.Tensor) decodeState {
	h := g.Tanh(p.initLin.Apply(g, final))
	_, c := p.dec.ZeroState(g)
	ctx := g.NewTensor(1, 2*p.cfg.HiddenDim)
	return decodeState{h: h, c: c, ctx: ctx}
}

// decCell advances the decoder LSTM over the previous target token with
// input feeding: the recurrence shared by the parser step (which then
// attends for a fresh context) and the LM pass (which keeps a zero context).
//
//genielint:returns-arena
func (p *Parser) decCell(g *nn.Graph, st decodeState, prev int) (h, c *nn.Tensor) {
	emb := p.decEmb.Lookup(g, prev)
	x := g.ConcatRow(emb, st.ctx)
	return p.dec.Step(g, x, st.h, st.c)
}

// hTilde computes the attentional h-tilde from a decoder state and its
// attention summary — shared by the parser step and the LM pass. rate is the
// dropout applied to it (the LM pass trains without it).
//
//genielint:returns-arena
func (p *Parser) hTilde(g *nn.Graph, h, ctx *nn.Tensor, rate float64) *nn.Tensor {
	return g.Dropout(g.Tanh(p.combLin.Apply(g, g.ConcatRow(h, ctx))), rate, p.rng)
}

// stepOut is what one decoder step produces, for one row (step) or R stacked
// rows (decodeStepBatch): the vocabulary distribution, the source attention,
// the pointer gate and the next state. beta (the attention over the previous
// turn's program) and cgate (the gate that splits copy mass between source
// and context) are nil when the step ran without a context memory.
//
//genielint:arena-scoped
type stepOut struct {
	pv, alpha, gate *nn.Tensor
	beta, cgate     *nn.Tensor
	next            decodeState
}

// step advances the decoder one token: prev is the previous target token id,
// H the source memory and C the optional previous-program memory. With C nil
// this is the single-turn step; with C a second attention over C refines
// h-tilde (after its dropout draw) before the output and gate projections.
//
//genielint:returns-arena
func (p *Parser) step(g *nn.Graph, st decodeState, prev int, H, C *nn.Tensor) stepOut {
	h, c := p.decCell(g, st, prev)
	alpha, ctx := g.AttendSoftmaxContext(p.attnLin.Apply(g, h), H)
	o := stepOut{alpha: alpha, next: decodeState{h: h, c: c, ctx: ctx}}
	htilde := p.hTilde(g, h, ctx, p.cfg.Dropout)
	if C != nil {
		var cctx *nn.Tensor
		o.beta, cctx = g.AttendSoftmaxContext(p.ctxAttnLin.Apply(g, htilde), C)
		htilde = g.Tanh(p.ctxCombLin.Apply(g, g.ConcatRow(htilde, cctx)))
	}
	o.pv = g.SoftmaxRow(p.outLin.Apply(g, htilde))
	o.gate = g.Sigmoid(p.gateLin.Apply(g, htilde))
	if C != nil {
		o.cgate = g.Sigmoid(p.ctxGateLin.Apply(g, htilde))
	}
	return o
}

// encodeCtx runs the previous-program encoder: context tokens are embedded
// through the decoder embedding (they are target-language tokens) and folded
// by ctxCell into an m×h memory for the second attention head.
//
//genielint:returns-arena
func (p *Parser) encodeCtx(g *nn.Graph, bufs *ctxBufs, ctxIds []int) *nn.Tensor {
	n := len(ctxIds)
	embs := grow(&bufs.embs, n)
	for i, id := range ctxIds {
		embs[i] = g.Dropout(p.decEmb.Lookup(g, id), p.cfg.Dropout, p.rng)
	}
	h, c := p.ctxCell.ZeroState(g)
	hs := grow(&bufs.hs, n)
	for i := 0; i < n; i++ {
		h, c = p.ctxCell.Step(g, embs[i], h, c)
		hs[i] = h
	}
	rows := grow(&bufs.rows, n)
	copy(rows, hs)
	return g.RowsToMatrix(rows)
}

// copyMask appends to mb one flag per token of toks — whether it is the
// target tok, i.e. a position the pointer may copy from — and returns the
// grown buffer and the appended sub-slice. The tape retains each sub-slice
// until Backward, so a step's masks share one growing buffer instead of one
// allocation per token.
func copyMask(mb []bool, toks []string, tok string) (buf, mask []bool) {
	start := len(mb)
	for _, s := range toks {
		mb = append(mb, s == tok)
	}
	return mb, mb[start:len(mb):len(mb)]
}

// loss computes the teacher-forced loss of one pair. A pair with a context
// (on a contextual parser) encodes the previous turn's program as a second
// memory: each step attends both and the pointer mixture splits copy mass
// between source and context tokens. All per-step slices (ids, target
// tokens, per-token copy masks) come from the parser's scratch so a
// steady-state training step allocates nothing.
func (p *Parser) loss(g *nn.Graph, pair *Pair) float64 {
	p.scr.srcIds = p.src.EncodeInto(p.scr.srcIds[:0], pair.Src)
	H, final := p.encode(g, &p.scr.enc, p.scr.srcIds)
	var C *nn.Tensor
	if p.ctxCell != nil && len(pair.Ctx) > 0 {
		p.scr.ctxIds = p.tgt.EncodeInto(p.scr.ctxIds[:0], pair.Ctx)
		C = p.encodeCtx(g, &p.scr.cenc, p.scr.ctxIds)
	}
	st := p.initDecode(g, final)
	prev := BosID
	total := 0.0
	target := append(p.scr.target[:0], pair.Tgt...)
	target = append(target, EosToken)
	p.scr.target = target
	mb := p.scr.maskBuf[:0]
	for _, tok := range target {
		o := p.step(g, st, prev, H, C)
		vocabIdx := -1
		if p.tgt.Has(tok) {
			vocabIdx = p.tgt.ID(tok)
		}
		var srcMask, ctxMask []bool
		switch {
		case !p.cfg.PointerGen:
			if vocabIdx < 0 {
				vocabIdx = UnkID
			}
			total += g.NLLPointerMix(o.pv, o.alpha, onesGate(g), nil, vocabIdx)
		case C == nil:
			mb, srcMask = copyMask(mb, pair.Src, tok)
			total += g.NLLPointerMix(o.pv, o.alpha, o.gate, srcMask, vocabIdx)
		default:
			mb, srcMask = copyMask(mb, pair.Src, tok)
			mb, ctxMask = copyMask(mb, pair.Ctx, tok)
			total += g.NLLPointerMixCtx(o.pv, o.alpha, o.beta, o.gate, o.cgate, srcMask, ctxMask, vocabIdx)
		}
		st = o.next
		prev = p.tgt.ID(tok)
	}
	p.scr.maskBuf = mb
	return total / float64(len(target))
}

// onesGate returns a constant gate of 1 (pure generation); it has no
// parameter behind it, which is exactly the -pointer ablation.
//
//genielint:returns-arena
func onesGate(g *nn.Graph) *nn.Tensor {
	t := g.NewTensor(1, 1)
	t.W[0] = 1
	return t
}
