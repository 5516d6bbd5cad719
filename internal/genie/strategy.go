package genie

import (
	"context"
	"math/rand"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/dialogue"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/thingtalk"
)

// Strategy is a training-data recipe (Section 5.3 / Fig. 8 and the Fig. 9
// Baseline).
type Strategy int

// Training strategies.
const (
	// StrategyGenie trains on synthesized plus paraphrase data with full
	// augmentation — the paper's contribution.
	StrategyGenie Strategy = iota
	// StrategySynthesizedOnly trains on synthesized data alone.
	StrategySynthesizedOnly
	// StrategyParaphraseOnly trains on paraphrase data alone (with
	// augmentation), the traditional methodology.
	StrategyParaphraseOnly
	// StrategyBaseline is the Wang-et-al baseline of Section 6: paraphrase
	// data only, no PPDB augmentation, no parameter expansion.
	StrategyBaseline
)

func (s Strategy) String() string {
	switch s {
	case StrategyGenie:
		return "genie"
	case StrategySynthesizedOnly:
		return "synthesized-only"
	case StrategyParaphraseOnly:
		return "paraphrase-only"
	case StrategyBaseline:
		return "baseline"
	}
	return "invalid"
}

// TargetOptions control program serialization for the Table 3 ablations.
type TargetOptions struct {
	// TypeAnnotations annotates parameter tokens with their types
	// (canonical; disabling is the "- type annotations" row).
	TypeAnnotations bool
	// Positional replaces keyword parameters ("- keyword param." row).
	Positional bool
	// ShuffleParams randomizes keyword-parameter order per training
	// example ("- canonicalization" row; evaluation still canonicalizes).
	ShuffleParams bool
}

// CanonicalTargets is the default serialization.
var CanonicalTargets = TargetOptions{TypeAnnotations: true}

// TrainingExamples instantiates the training set for a strategy. Held-out
// combinations never enter training.
func (d *Data) TrainingExamples(s Strategy, rng *rand.Rand) []dataset.Example {
	factors := d.Scale.Factors
	ppdb := d.Scale.PPDBVariants
	var sources []dataset.Example
	switch s {
	case StrategyGenie:
		sources = append(sources, d.Synth...)
		sources = append(sources, d.Paraphrases...)
	case StrategySynthesizedOnly:
		sources = append(sources, d.Synth...)
	case StrategyParaphraseOnly:
		sources = append(sources, d.Paraphrases...)
	case StrategyBaseline:
		sources = append(sources, d.Paraphrases...)
		factors = augment.ExpansionFactors{ParaphraseWithString: 1, Paraphrase: 1, SynthesizedPrimitive: 1, Synthesized: 1}
		ppdb = 0
	}
	sources = filterExamples(sources, func(e *dataset.Example) bool {
		return !d.HeldOutCombos[dataset.FunctionComboKey(e.Program)]
	})
	train := augment.Expand(sources, factors, d.sampler, rng)
	if ppdb > 0 {
		train = augment.AugmentParaphrases(train, ppdb, rng)
	}
	rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
	if d.Scale.TrainCap > 0 && len(train) > d.Scale.TrainCap {
		train = train[:d.Scale.TrainCap]
	}
	return train
}

// ToPairs serializes examples into model training pairs under the given
// target options.
func ToPairs(examples []dataset.Example, topt TargetOptions, schemas thingtalk.SchemaSource, rng *rand.Rand) []model.Pair {
	opt := thingtalk.EncodeOptions{
		TypeAnnotations: topt.TypeAnnotations,
		Positional:      topt.Positional,
		Schemas:         schemas,
	}
	out := make([]model.Pair, 0, len(examples))
	for i := range examples {
		prog := examples[i].Program
		if topt.ShuffleParams {
			prog = prog.Clone()
			shuffleParams(prog, rng)
		}
		out = append(out, model.Pair{
			Src: examples[i].Words,
			Tgt: prog.Encode(opt),
		})
	}
	return out
}

// shuffleParams randomizes the keyword-parameter order of every invocation
// (the -canonicalization ablation).
func shuffleParams(p *thingtalk.Program, rng *rand.Rand) {
	for _, inv := range p.Invocations() {
		rng.Shuffle(len(inv.In), func(i, j int) { inv.In[i], inv.In[j] = inv.In[j], inv.In[i] })
	}
}

// TrainedParser is a parser plus the serialization it was trained with.
type TrainedParser struct {
	Parser *model.Parser
	Topt   TargetOptions
}

// Parse implements eval.Decoder.
func (t *TrainedParser) Parse(words []string) []string { return t.Parser.Parse(words) }

// TrainOptions bundle the per-run knobs of Train.
type TrainOptions struct {
	Strategy Strategy
	Topt     TargetOptions
	Model    model.Config
	Seed     int64
	// Checkpoint, when set, makes training resumable: epoch (and optionally
	// mid-epoch) checkpoints go to the store, and a run that finds a
	// compatible checkpoint resumes its exact trajectory instead of starting
	// over.
	Checkpoint model.CheckpointStore
	// CheckpointEverySteps is the mid-epoch checkpoint cadence in optimizer
	// steps (0 = epoch boundaries only). Only consulted with Checkpoint set.
	CheckpointEverySteps int
	// Dialogue augments the training pairs with synthesized multi-turn
	// sessions (package dialogue) and turns on the model's context encoder:
	// every follow-up turn becomes one contextual pair whose Ctx is the
	// previous turn's target serialization. Single-turn pairs keep an empty
	// Ctx, so the parser still decodes opening commands bit-identically to a
	// non-contextual one.
	Dialogue bool
}

// Train builds the training set for a strategy and trains a parser; the
// ThingTalk LM pre-training corpus is the synthesized portion of the
// training set (Section 4.2).
func (d *Data) Train(opt TrainOptions) *TrainedParser {
	rng := rand.New(rand.NewSource(opt.Seed))
	trainSet := d.TrainingExamples(opt.Strategy, rng)
	pairs := ToPairs(trainSet, opt.Topt, d.Lib, rng)

	var lm [][]string
	if opt.Model.PretrainLM {
		for i := range trainSet {
			if trainSet[i].Group == dataset.GroupSynthesized {
				lm = append(lm, pairs[i].Tgt)
			}
		}
	}
	// Validation pairs for early stopping come from the validation set.
	valPairs := ToPairs(d.Validation, opt.Topt, d.Lib, rng)

	mcfg := opt.Model
	mcfg.Seed = opt.Seed
	if opt.Dialogue {
		mcfg.Contextual = true
		pairs = append(pairs, d.dialoguePairs(trainSet, opt)...)
	}
	// A nil Checkpoint trains exactly like model.Train. The one error,
	// ErrInterrupted, needs a canceled context.
	//genielint:ctx-root training CLI entry point: interruption arrives as process death, which the checkpoint store absorbs
	parser, _ := model.TrainResumable(context.Background(), pairs, valPairs, lm, mcfg, model.TrainOpts{
		Checkpoint: opt.Checkpoint,
		EverySteps: opt.CheckpointEverySteps,
	})
	return &TrainedParser{Parser: parser, Topt: opt.Topt}
}

// dialoguePairs synthesizes multi-turn sessions of the dialogue package's
// default length from the (already instantiated) training set and flattens
// their follow-up turns into contextual pairs. First turns are skipped: each
// seed example is already a single-turn pair, and session synthesis copies
// its program verbatim.
func (d *Data) dialoguePairs(trainSet []dataset.Example, opt TrainOptions) []model.Pair {
	sessions := dialogue.Synthesize(trainSet, dialogue.Config{
		Seed:    opt.Seed,
		Schemas: d.Lib,
		Encode: thingtalk.EncodeOptions{
			TypeAnnotations: opt.Topt.TypeAnnotations,
			Positional:      opt.Topt.Positional,
			Schemas:         d.Lib,
		},
	})
	var out []model.Pair
	for _, p := range dialogue.Pairs(sessions) {
		if len(p.Ctx) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Evaluate scores a trained parser on an evaluation set.
func (d *Data) Evaluate(p *TrainedParser, examples []dataset.Example) eval.Report {
	return eval.Evaluate(p, examples, d.Lib)
}

// NewProgramSubset returns the validation examples whose function
// combinations never appear in training (the Table 3 "New Program" column).
func (d *Data) NewProgramSubset() []dataset.Example {
	return filterExamples(d.Validation, func(e *dataset.Example) bool {
		return d.HeldOutCombos[dataset.FunctionComboKey(e.Program)]
	})
}
