package augment

import (
	"context"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/params"
)

// Streaming parameter replacement and augmentation: ExpandStream is the
// concurrent counterpart of Expand + AugmentParaphrases. It consumes
// slot-marked examples from a channel (typically fed by
// synthesis.SynthesizeStream or a paraphrase source), fans each example out
// to a worker pool that instantiates it Factor-many times and produces PPDB
// variants, and re-emits the results on a bounded channel in input order
// with global deduplication. Every example's randomness comes from an RNG
// seeded by params.DeriveSeed(seed, stage, index), so the emitted set is
// identical for any Workers count, and the bounded channels let synthesis,
// augmentation, and parameter instantiation overlap instead of running as
// three full-materialization passes.

// StreamConfig controls an ExpandStream run.
type StreamConfig struct {
	// Factors are the per-group expansion multipliers (Section 5.2).
	Factors ExpansionFactors
	// PPDBVariants is the number of PPDB-augmented copies per instantiated
	// paraphrase example (0 disables augmentation).
	PPDBVariants int
	// Seed makes the stream deterministic; per-example RNGs derive from it.
	Seed int64
	// Workers is the number of instantiation goroutines (0 = GOMAXPROCS).
	// The emitted examples do not depend on the worker count.
	Workers int
}

// streamBuffer is the capacity of ExpandStream's internal and output
// channels.
const streamBuffer = 128

// ExpandStream instantiates each incoming example Factor-many times with
// independent parameter draws (plus PPDB variants for paraphrase examples),
// deduplicates globally, and emits training-ready examples in input order.
// The output channel closes when the input closes or ctx is cancelled.
func ExpandStream(ctx context.Context, in <-chan dataset.Example, sampler *params.Sampler, cfg StreamConfig) <-chan dataset.Example {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan dataset.Example, streamBuffer)

	type job struct {
		idx int
		e   dataset.Example
	}
	type batch struct {
		idx      int
		examples []dataset.Example
	}

	jobs := make(chan job, streamBuffer)
	batches := make(chan batch, streamBuffer)

	// Dispatcher: index the input stream. Both the receive and the send
	// select on ctx so cancellation closes the output channel even when
	// the producer goes idle without closing in.
	go func() {
		defer close(jobs)
		idx := 0
		for {
			var e dataset.Example
			var ok bool
			select {
			case e, ok = <-in:
				if !ok {
					return
				}
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- job{idx: idx, e: e}:
				idx++
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: expand one example per job with its own derived RNG.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				b := batch{idx: j.idx, examples: expandOne(&j.e, j.idx, sampler, cfg)}
				select {
				case batches <- b:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(batches)
	}()

	// Collector: restore input order, deduplicate globally, emit.
	go func() {
		defer close(out)
		pending := map[int][]dataset.Example{}
		seen := map[string]bool{}
		next := 0
		for b := range batches {
			pending[b.idx] = b.examples
			for {
				examples, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				for i := range examples {
					key := examples[i].Sentence() + "|" + examples[i].Program.String()
					if seen[key] {
						continue
					}
					seen[key] = true
					select {
					case out <- examples[i]:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
	return out
}

// expandOne instantiates one slot-marked example Factor-many times and
// attaches PPDB variants of instantiated paraphrases; duplicates within the
// example are dropped here, cross-example duplicates at the collector. The
// RNG derives from the example's position in the input stream, so results
// are independent of worker scheduling.
func expandOne(e *dataset.Example, idx int, sampler *params.Sampler, cfg StreamConfig) []dataset.Example {
	rng := rand.New(rand.NewSource(params.DeriveSeed(cfg.Seed, "expand", idx)))
	n := cfg.Factors.Factor(e)
	out := make([]dataset.Example, 0, n)
	local := map[string]bool{}
	for k := 0; k < n; k++ {
		inst, err := Instantiate(e, sampler, rng)
		if err != nil {
			continue
		}
		key := inst.Sentence() + "|" + inst.Program.String()
		if local[key] {
			continue
		}
		local[key] = true
		out = append(out, inst)
		if cfg.PPDBVariants > 0 && inst.Group == dataset.GroupParaphrase {
			for _, v := range PPDBVariants(&inst, cfg.PPDBVariants, rng) {
				vkey := v.Sentence() + "|" + v.Program.String()
				if local[vkey] {
					continue
				}
				local[vkey] = true
				out = append(out, v)
			}
		}
	}
	return out
}
