package genie

import (
	"context"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
)

// PipelineStream sends on a channel the training examples a Genie-strategy
// parser trains on: BuildData, then TrainingExamples seeded as Data.Train
// seeds it. The channel closes once every example is sent or ctx is done.
//
// workers is unused; it is kept only because the benchmark's synthCell
// (bench/offline.go) calls this signature. A change to the benchmark should
// inline these lines into synthCell and then delete this adapter.
func PipelineStream(ctx context.Context, lib *thingpedia.Library, gopt nltemplate.Options, scale Scale, seed int64, workers int) <-chan dataset.Example {
	out := make(chan dataset.Example)
	go func() {
		defer close(out)
		d := BuildData(lib, gopt, scale, seed)
		for _, e := range d.TrainingExamples(StrategyGenie, rand.New(rand.NewSource(seed))) {
			select {
			case out <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
