package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/dialogue"
	"repro/internal/eval"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// segmentExamples is the equal work of one training-throughput segment.
const segmentExamples = 64

// trainingPairs rebuilds the pairs a recipe trains on, the way
// genie.Data.Train does internally: the Genie strategy's instantiated
// examples under canonical targets, plus the follow-up turns of synthesized
// sessions for a dialogue recipe.
func trainingPairs(d *genie.Data, rc recipe) []model.Pair {
	rng := rand.New(rand.NewSource(trainSeed))
	examples := d.TrainingExamples(genie.StrategyGenie, rng)
	pairs := genie.ToPairs(examples, genie.CanonicalTargets, d.Lib, rng)
	if rc.dialogue {
		sessions := dialogue.Synthesize(examples, dialogue.Config{
			Seed: trainSeed, Schemas: d.Lib,
			Encode: thingtalk.EncodeOptions{TypeAnnotations: true, Schemas: d.Lib},
		})
		for _, p := range dialogue.Pairs(sessions) {
			if len(p.Ctx) > 0 {
				pairs = append(pairs, p)
			}
		}
	}
	return pairs
}

func trainerConfig(rc recipe) model.Config {
	cfg := rc.model
	cfg.Seed = trainSeed
	cfg.Contextual = rc.dialogue
	return cfg
}

// segmentBatches cuts one segment's fixed work out of the training pairs:
// segmentExamples pairs (the contextual ones for a dialogue recipe), sorted
// by length like a bucketed epoch, in minibatches of the recipe's size.
func segmentBatches(pairs []model.Pair, rc recipe) [][]model.Pair {
	var pick []model.Pair
	for _, p := range pairs {
		if rc.dialogue && len(p.Ctx) == 0 {
			continue
		}
		if pick = append(pick, p); len(pick) == segmentExamples {
			break
		}
	}
	sort.SliceStable(pick, func(i, j int) bool {
		return len(pick[i].Src)+len(pick[i].Tgt) < len(pick[j].Src)+len(pick[j].Tgt)
	})
	bs := max(rc.model.BatchSize, 1)
	var out [][]model.Pair
	for i := 0; i < len(pick); i += bs {
		out = append(out, pick[i:min(i+bs, len(pick))])
	}
	return out
}

// stepSegment runs one pass over the segment's batches.
func stepSegment(tr *model.Trainer, batches [][]model.Pair) {
	for _, b := range batches {
		if len(b) == 1 {
			tr.Step(&b[0])
		} else {
			tr.StepBatch(b)
		}
	}
}

// cell is one offline throughput measurement: step does one segment of
// equal work and returns its rate; rates collects them.
type cell struct {
	name  string
	step  func() (float64, error)
	rates []float64
}

// roundRobin runs the cells' segments in turn for the budget (at least
// minRounds rounds), so that every cell samples the whole window and a
// disturbed second costs each of them one segment.
func roundRobin(budget time.Duration, cells ...*cell) error {
	const minRounds = 4
	deadline := time.Now().Add(budget)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for _, c := range cells {
			rate, err := c.step()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			c.rates = append(c.rates, rate)
		}
	}
	return nil
}

// trainCell measures training throughput: the recipe's optimizer steps
// (StepBatch at its batch size, Step for B=1) over a fixed segment of its own
// training pairs, in examples per second. It never reuses set-up's timings.
func trainCell(d *genie.Data, rc recipe) *cell {
	pairs := trainingPairs(d, rc)
	batches := segmentBatches(pairs, rc)
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	tr := model.NewTrainer(pairs, nil, trainerConfig(rc))
	stepSegment(tr, batches) // warms the arena and the scratch buffers
	return &cell{name: "train", step: func() (float64, error) {
		t0 := time.Now()
		stepSegment(tr, batches)
		return float64(n) / time.Since(t0).Seconds(), nil
	}}
}

// poolExamples parses a pool's gold programs into evaluation examples.
func poolExamples(w *workload, p *pool, libs map[string]*thingpedia.Library) (map[string][]dataset.Example, error) {
	out := map[string][]dataset.Example{}
	for _, skill := range w.skills {
		for _, s := range p.singles[skill] {
			prog, err := thingtalk.ParseTokens(strings.Fields(s.Gold), thingtalk.ParseOptions{Schemas: libs[skill]})
			if err != nil {
				return nil, fmt.Errorf("pool %s: gold %q: %w", skill, s.Gold, err)
			}
			out[skill] = append(out[skill], dataset.Example{Words: strings.Fields(s.Words), Program: prog})
		}
	}
	return out, nil
}

// evalSegment is how many sentences one offline-evaluation segment scores.
const evalSegment = 96

// evalCell measures offline evaluation: eval.EvaluateBatched (B=16) over a
// fixed sample of the workload's pool, evalSegment sentences drawn evenly
// across it, in sentences per second. The sample must score the same every
// time: offline decode is deterministic.
func evalCell(w *workload, skills map[string]*trained, examples map[string][]dataset.Example) *cell {
	tr := skills[w.skills[0]]
	all := examples[w.skills[0]]
	sample := make([]dataset.Example, 0, evalSegment)
	for i := 0; i < evalSegment; i++ {
		sample = append(sample, all[i*len(all)/evalSegment])
	}
	first := -1
	return &cell{name: "eval", step: func() (float64, error) {
		t0 := time.Now()
		r := eval.EvaluateBatched(tr.parser, sample, tr.lib, 16)
		rate := float64(r.Total) / time.Since(t0).Seconds()
		if first >= 0 && r.Correct != first {
			return 0, fmt.Errorf("offline evaluation is not deterministic: %d correct, then %d", first, r.Correct)
		}
		first = r.Correct
		return rate, nil
	}}
}

// synthCell measures the data pipeline: genie.PipelineStream (synthesis,
// paraphrase simulation, augmentation; workers = GOMAXPROCS) drained by
// dataset.Collect at genie.Small's data settings, one generator seed after
// another, in examples per second.
func synthCell(lib *thingpedia.Library, seed int64) *cell {
	k := int64(0)
	return &cell{name: "synth", step: func() (float64, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		k++
		t0 := time.Now()
		ex := dataset.Collect(ctx, genie.PipelineStream(ctx, lib, nltemplate.DefaultOptions, genie.Small, seed*1000+k, 0), 0)
		return float64(len(ex)) / time.Since(t0).Seconds(), nil
	}}
}

// offlineBuild is train-offline's set-up, the skill developer's whole path
// from the .tt file to a snapshot on disk: library, template grammar,
// BuildData, Data.Train with the recipe's fixed step budget, the grammar
// stamp and SaveFile.
func offlineBuild(w *workload, maxSteps int, snapshot string) (*trained, error) {
	lib, err := thingpedia.LoadLibraryFile(filepath.Join(benchDir, "skills", w.libDir, w.skills[0]+".tt"))
	if err != nil {
		return nil, err
	}
	g := nltemplate.StandardGrammar(lib, nltemplate.DefaultOptions)
	d := genie.BuildDataWithGrammar(lib, g, w.recipe.data, trainSeed)
	m := w.recipe.model
	m.MaxSteps = maxSteps
	tp := d.Train(genie.TrainOptions{Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets, Model: m, Seed: trainSeed})
	if err := tp.Parser.SetGrammar(grammar.NewSpec(lib.Functions())); err != nil {
		return nil, fmt.Errorf("grammar mask: %w", err)
	}
	if err := tp.Parser.SaveFile(snapshot); err != nil {
		return nil, err
	}
	return &trained{lib: lib, parser: tp.Parser, data: d}, nil
}
