package genie

import (
	"context"
	"math/rand"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/nltemplate"
	"repro/internal/params"
	"repro/internal/paraphrase"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
)

// Streaming pipeline: the concurrent, bounded-channel counterpart of the
// materializing BuildData + TrainingExamples path. Synthesis waves,
// paraphrase simulation, PPDB augmentation and parameter instantiation run
// as overlapping stages connected by bounded channels, so the first
// training-ready examples are available while deep derivations are still
// being sampled. All stages seed their RNGs with params.DeriveSeed, so
// output is identical for any worker count.

// pipelineBuffer is the capacity of the channels linking pipeline stages.
const pipelineBuffer = 128

// PipelineStream runs synthesis, paraphrase simulation, and parameter
// expansion as an overlapping streaming pipeline and emits instantiated,
// training-ready examples: each synthesized example flows through, up to
// Scale.ParaphraseMax of them also spawn simulated crowd paraphrases
// (which receive PPDB augmentation downstream), and every example is
// instantiated Factor-many times by the expansion worker pool. The channel
// closes when the pipeline drains or ctx is cancelled; a consumer that
// stops early must cancel ctx to release the upstream stages. workers <= 0
// uses GOMAXPROCS for every stage.
func PipelineStream(ctx context.Context, lib *thingpedia.Library, gopt nltemplate.Options, scale Scale, seed int64, workers int) <-chan dataset.Example {
	g := nltemplate.StandardGrammar(lib, gopt)
	synth := synthesis.SynthesizeStream(ctx, g, synthesis.Config{
		TargetPerRule: scale.SynthTarget,
		MaxDepth:      scale.MaxDepth,
		Seed:          seed,
		Schemas:       lib,
		Workers:       workers,
	})
	in := make(chan dataset.Example, pipelineBuffer)
	go func() {
		defer close(in)
		sent := 0
		idx := 0
		emit := func(e dataset.Example) bool {
			select {
			case in <- e:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for e := range synth {
			ex := dataset.Example{
				Words:   e.Words,
				Program: e.Program,
				Group:   dataset.GroupSynthesized,
				Depth:   e.Depth,
			}
			if !emit(ex) {
				return
			}
			// Streaming approximation of SelectForParaphrase + Simulate:
			// unlike the materializing path it cannot shuffle the full
			// synthesized set, so it admits the first ParaphraseMax
			// eligible sentences in stream order. Each selected example
			// gets a per-example crowd batch whose seed derives from the
			// example index, so the paraphrases are deterministic and
			// scheduling-independent.
			if sent < scale.ParaphraseMax && paraphraseEligible(&ex, lib, params.DeriveSeed(seed, "paraselect", idx)) {
				sent++
				res := paraphrase.Simulate([]dataset.Example{ex}, paraphrase.Config{
					Seed: params.DeriveSeed(seed, "paraphrase", idx),
				})
				for i := range res.Paraphrases {
					if !emit(res.Paraphrases[i]) {
						return
					}
				}
			}
			idx++
		}
	}()
	return augment.ExpandStream(ctx, in, params.NewSampler(), augment.StreamConfig{
		Factors:      scale.Factors,
		PPDBVariants: scale.PPDBVariants,
		Seed:         seed,
		Workers:      workers,
	})
}

// paraphraseEligible approximates SelectForParaphrase's stratification as a
// per-example predicate: every primitive is worth paraphrasing, compounds
// involving at least one easy-to-understand skill always qualify (Section
// 3.2 — combining easy functions with difficult ones maximizes paraphrase
// success), and hard compounds get the same ~10% share the materializing
// selector budgets for them, decided by a deterministic per-example seed.
func paraphraseEligible(e *dataset.Example, lib *thingpedia.Library, seed int64) bool {
	if !e.Program.IsCompound() {
		return true
	}
	for _, skill := range e.Program.Skills() {
		if c, ok := lib.Class(skill); ok && c.Easy {
			return true
		}
	}
	return rand.New(rand.NewSource(seed)).Float64() < 0.1
}
