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
	// BatchSize is the training minibatch width: the epochs and pretrainLM
	// process shuffled minibatches of this many examples per optimizer step,
	// padding each batch to its longest sequence. 0 or 1 steps one example at
	// a time (pretrainLM then samples its programs with replacement).
	// Contextual parsers train one example at a time whatever the setting.
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

// Parser is the trained semantic parser: exactly what a snapshot holds
// (Save). Training state — optimizers, graphs, scratch buffers and random
// streams — belongs to the Trainer that produces it.
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

	meta SnapshotMeta // provenance stamped into snapshots (snapshot.go)

	// Constrained decoding and adaptive serving (grammar.go): the grammar
	// spec the parser was trained against, its automaton compiled for this
	// target vocabulary (nil decodes unmasked), and the fitted confidence
	// threshold. Set before serving begins; decode paths read them without
	// locking.
	gspec *grammar.Spec
	auto  *grammar.Automaton
	calib Calibration
}

// grow returns a length-n slice backed by *buf, growing it as needed; the
// training loops and the search use it to position tape-retained slices out of
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

// newParser allocates a parser whose base layers draw their initial weights
// from rng; a Trainer keeps drawing its dropout masks from the same stream.
func newParser(cfg Config, src, tgt *Vocab, rng *rand.Rand) *Parser {
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

// decodeState carries the decoder recurrence.
//
//genielint:arena-scoped
type decodeState struct {
	h, c *nn.Tensor
	ctx  *nn.Tensor
}

// stepOut is what one decoder step produces for R stacked rows
// (decodeStepBatch): the vocabulary distribution, the source attention, the
// pointer gate and the next state. beta (the attention over the previous
// turn's program) and cgate (the gate that splits copy mass between source
// and context) are nil when the step ran without a context memory.
//
//genielint:arena-scoped
type stepOut struct {
	pv, alpha, gate *nn.Tensor
	beta, cgate     *nn.Tensor
	next            decodeState
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
