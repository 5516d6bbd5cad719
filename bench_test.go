// Package repro's root benchmarks exercise the paper's tables and figures at
// unit scale (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured values). Each experiment benchmark runs one
// iteration of the corresponding experiment — same pipeline shape and same
// printed rows/series as the paper, but with the unit-scale presets, so the
// numbers are qualitative reproductions rather than full-scale regenerations
// (use `cmd/genie experiment <name> -scale small|full` for the larger runs).
// The substrate micro-benchmarks below them measure the hot paths of the
// pipeline, including the parallel experiment harness at several worker
// counts (BenchmarkFig8Workers).
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/genie"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

var benchScale = genie.Unit

// --- Paper tables and figures ---------------------------------------------------

// BenchmarkFig7TrainingSetCharacteristics regenerates Fig. 7 (training-set
// composition: primitive / +filters / compound / +param-passing / +filters).
func BenchmarkFig7TrainingSetCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkFig8TrainingStrategies regenerates Fig. 8 (synthesized-only vs
// paraphrase-only vs Genie on the four evaluation sets).
func BenchmarkFig8TrainingStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkTable3Ablations regenerates Table 3 (the feature ablation study).
func BenchmarkTable3Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkFig9CaseStudies regenerates Fig. 9 (Spotify, TACL and TT+A;
// Baseline vs Genie).
func BenchmarkFig9CaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkSynthesisStatistics regenerates the §5.2 dataset statistics
// (synthesized-set size, vocabulary growth, paraphrase novelty).
func BenchmarkSynthesisStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Stats(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkErrorAnalysis regenerates the §5.5 error ladder.
func BenchmarkErrorAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Errors(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkParaphraseLimitation regenerates §5.2's "limitation of paraphrase
// tests" experiment (the Wang-et-al methodology scored three ways).
func BenchmarkParaphraseLimitation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Limitation(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkIFTTTCleanup regenerates Table 2 (IFTTT cleanup-rule activity).
func BenchmarkIFTTTCleanup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.IFTTTCleanup(benchScale, 1)
		if i == 0 {
			b.StopTimer()
			res.Print(os.Stdout)
			b.StartTimer()
		}
	}
}

// --- Substrate micro-benchmarks --------------------------------------------------

func BenchmarkSynthesis(b *testing.B) {
	lib := thingpedia.Builtin()
	g := nltemplate.StandardGrammar(lib, nltemplate.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synthesis.Synthesize(g, synthesis.Config{TargetPerRule: 24, MaxDepth: 4, Seed: int64(i), Schemas: lib})
	}
}

func BenchmarkParseProgram(b *testing.B) {
	src := `monitor ( @com.twitter.timeline filter param:author == " pldi " ) => @com.twitter.retweet param:tweet_id = param:tweet_id`
	for i := 0; i < b.N; i++ {
		if _, err := thingtalk.ParseProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTypecheckAndCanonicalize(b *testing.B) {
	lib := thingpedia.Builtin()
	prog, err := thingtalk.ParseProgram(
		`now => @com.dropbox.list_folder filter param:file_size > 10 unit:MB and ( param:is_folder == false or param:modified_time > date:start_of_week ) => notify`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := thingtalk.Typecheck(prog, lib); err != nil {
			b.Fatal(err)
		}
		thingtalk.Canonicalize(prog, lib)
	}
}

// benchTrainCfg is the shared config of the two training benchmarks below.
var benchTrainCfg = model.Config{EmbedDim: 32, HiddenDim: 48, LR: 1e-3, Epochs: 1,
	EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 1}

func benchTrainPair() model.Pair {
	return model.Pair{
		Src: []string{"post", "hello", "world", "on", "twitter"},
		Tgt: []string{"now", "=>", "@com.twitter.post", "param:status", "=", `"`, "hello", "world", `"`},
	}
}

// BenchmarkTrainingStep measures the steady-state pointer-generator training
// step: vocabularies, parser, graph and arena are built once, then each
// iteration is one forward/backward/Adam update. With the typed tape and
// tensor arena this is (near) allocation-free; the pre-arena substrate
// allocated two slices plus a closure for every op of every token.
func BenchmarkTrainingStep(b *testing.B) {
	pair := benchTrainPair()
	tr := model.NewTrainer([]model.Pair{pair}, nil, benchTrainCfg)
	tr.Step(&pair) // warm the arena, tape and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(&pair)
	}
}

// BenchmarkTrainModel measures a whole model.Train call on one pair (vocab
// build, parser init, one epoch) — the shape of the pre-PR
// BenchmarkTrainingStep, kept for apples-to-apples comparison with the
// numbers recorded in EXPERIMENTS.md.
func BenchmarkTrainModel(b *testing.B) {
	pairs := []model.Pair{benchTrainPair()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Train(pairs, nil, nil, benchTrainCfg)
	}
}

// benchBatchPairs builds a mixed-length training set for the minibatch
// benchmarks: assistant-command sentences in the repo's benchmark convention
// (BenchmarkTrainingStep's shape), with 4–7 source tokens and 8–11 program
// tokens varied so batches exercise the padding and masking machinery.
func benchBatchPairs() []model.Pair {
	values := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	verbs := []string{"post", "send", "note", "mail"}
	filler := []string{"on", "my", "feed"}
	var pairs []model.Pair
	for i, v := range values {
		for j, vb := range verbs {
			src := append([]string{vb, v, "now"}, filler[:(i+j)%4]...)
			tgt := []string{"now", "=>", "@svc." + vb, "param:text", "=", `"`, v, `"`}
			if (i+j)%3 > 0 {
				tgt = append(tgt, "param:when", "=", "enum:now")
			}
			pairs = append(pairs, model.Pair{Src: src, Tgt: tgt})
		}
	}
	return pairs
}

// BenchmarkTrainStepBatched measures per-example training throughput of the
// padded-minibatch path at B=1 vs B=16: each iteration is one full
// forward/backward/Adam step over a minibatch, and the ns/example metric
// divides by the batch width. Both legs sum their parameter gradients the
// same way, after the row-local backward: gradW loads and stores each
// weight-gradient element once per run of rows — a B=16 product's active
// rows, or a B=1 step's consecutive one-row products through one weight —
// not once per row. The B=16 leg also amortizes weight streaming (matvecRows
// loads each weight strip once per block of four rows; gradX reads each
// weight once per pair of rows), the Adam update and per-op tape overhead
// over 16 examples; the ratio of the two legs' ns/example is the
// minibatching speedup. The B=1 leg runs every phase on the calling
// goroutine; the B=16 leg is a split step, whose phases run in two parts with
// a helper core where GOMAXPROCS allows, so -cpu 1,2 gives its one- and
// two-core times.
func BenchmarkTrainStepBatched(b *testing.B) {
	pairs := benchBatchPairs()
	// B=1 steps one pair at a time (Step, a batch of one); B=16 pushes
	// minibatches through StepBatch.
	b.Run("B=1", func(b *testing.B) {
		tr := model.NewTrainer(pairs, nil, benchTrainCfg)
		tr.Step(&pairs[0]) // warm the arena, tape and scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Step(&pairs[i%len(pairs)])
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/example")
	})
	const bs = 16
	b.Run("B=16", func(b *testing.B) {
		tr := model.NewTrainer(pairs, nil, benchTrainCfg)
		var batches [][]model.Pair
		for lo := 0; lo+bs <= len(pairs); lo += bs {
			batches = append(batches, pairs[lo:lo+bs])
		}
		tr.StepBatch(batches[0]) // warm the arena, tape and scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.StepBatch(batches[i%len(batches)])
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/example")
	})
}

// BenchmarkBatchedDecode measures the serving-side win of lockstep batched
// decoding: a 16-sentence window decoded sequentially (16 Parse/ParseBeam
// calls) vs as one Decode call over the window, greedy and at beam 4.
// Outputs are token-identical (TestParseBatchParallelMatchesSequential);
// only the per-sentence cost changes.
func BenchmarkBatchedDecode(b *testing.B) {
	pairs := benchBatchPairs()
	cfg := benchTrainCfg
	cfg.Epochs = 3
	p := model.Train(pairs, nil, nil, cfg)
	window := make([][]string, 16)
	for i := range window {
		window[i] = pairs[i%len(pairs)].Src
	}
	rows := make([]model.Row, len(window))
	for i, s := range window {
		rows[i].Words = s
	}
	p.Decode(rows, model.Policy{}) // warm graph pools and scratch buffers
	p.Decode(rows, model.Policy{Beam: 4})

	perSentence := func(b *testing.B) func() {
		b.ReportAllocs()
		b.ResetTimer()
		return func() {
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(window)), "ns/sentence")
		}
	}
	b.Run("greedy/sequential", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			for _, s := range window {
				p.Parse(s)
			}
		}
	})
	b.Run("greedy/batched", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			p.ParseBatch(window)
		}
	})
	b.Run("beam4/sequential", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			for _, s := range window {
				p.ParseBeam(s, 4)
			}
		}
	})
	b.Run("beam4/batched", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			p.Decode(rows, model.Policy{Beam: 4})
		}
	})
}

// benchContextPairs extends benchBatchPairs with multi-turn follow-ups:
// every base command gains one "change it to <value>" turn whose context is
// the base program and whose target swaps only the quoted value, the shape
// package dialogue synthesizes.
func benchContextPairs() []model.Pair {
	base := benchBatchPairs()
	pairs := append([]model.Pair(nil), base...)
	for i := range base {
		prev := base[i].Tgt
		next := base[(i+1)%len(base)].Tgt
		tgt := append([]string(nil), prev...)
		tgt[6] = next[6] // the quoted value token
		pairs = append(pairs, model.Pair{
			Src: []string{"change", "it", "to", tgt[6]},
			Tgt: tgt,
			Ctx: prev,
		})
	}
	return pairs
}

// BenchmarkContextDecode measures what conditioning on the previous turn's
// program costs at serving time: one contextual parser decodes the same
// follow-up window through the plain path (nil context — bit-identical to a
// single-turn parser) and through the contextual path (context encoder +
// second attention head + pointer copy over context slots), sequentially and
// as one lockstep batched forward.
func BenchmarkContextDecode(b *testing.B) {
	pairs := benchContextPairs()
	cfg := benchTrainCfg
	cfg.Epochs = 3
	cfg.Contextual = true
	p := model.Train(pairs, nil, nil, cfg)
	window := make([][]string, 16)
	ctxs := make([][]string, 16)
	follow := pairs[len(pairs)/2:]
	for i := range window {
		window[i] = follow[i%len(follow)].Src
		ctxs[i] = follow[i%len(follow)].Ctx
	}
	rows := make([]model.Row, len(window))
	for i, s := range window {
		rows[i] = model.Row{Words: s, Context: ctxs[i]}
	}
	p.ParseBatch(window) // warm graph pools and scratch buffers
	p.Decode(rows, model.Policy{})

	perSentence := func(b *testing.B) func() {
		b.ReportAllocs()
		b.ResetTimer()
		return func() {
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(window)), "ns/sentence")
		}
	}
	b.Run("no-context/sequential", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			for _, s := range window {
				p.ParseContext(s, nil)
			}
		}
	})
	b.Run("context/sequential", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			for j, s := range window {
				p.ParseContext(s, ctxs[j])
			}
		}
	})
	b.Run("no-context/batched", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			p.ParseBatch(window)
		}
	})
	b.Run("context/batched", func(b *testing.B) {
		defer perSentence(b)()
		for i := 0; i < b.N; i++ {
			p.Decode(rows, model.Policy{})
		}
	})
}

func BenchmarkRuntimeExecution(b *testing.B) {
	lib := thingpedia.Builtin()
	exec := runtime.NewExecutor(lib)
	runtime.RegisterAll(exec, lib, 1)
	prog, err := thingtalk.ParseProgram(
		`now => @com.nytimes.get_front_page join @com.yandex.translate on param:text = param:title => notify`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(prog, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Workers measures the parallel experiment harness end to end:
// the Fig8 strategy comparison (6 independent training runs at a reduced
// scale) at Workers=1 vs Workers=NumCPU. The result rows are bit-identical
// across worker counts — TestFig8ParallelDeterminism asserts it — so the
// ratio of the two legs is the training harness's parallel speedup on this
// machine.
func BenchmarkFig8Workers(b *testing.B) {
	scale := genie.Unit
	scale.SynthTarget = 12
	scale.MaxDepth = 3
	scale.ParaphraseMax = 80
	scale.TrainCap = 150
	scale.EvalN = 20
	scale.Seeds = []int64{1, 2}
	scale.Model = model.Config{
		EmbedDim: 16, HiddenDim: 24, LR: 5e-3, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, PretrainLM: false,
		MaxDecodeLen: 24, MinVocabCount: 3,
	}
	workersList := []int{1}
	if n := goruntime.NumCPU(); n > 1 {
		workersList = append(workersList, n)
	} else {
		fmt.Println("single-CPU runner: skipping the workers=NumCPU leg (no speedup measurable)")
	}
	for _, workers := range workersList {
		scale.Workers = workers
		sc := scale
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiments.Fig8(sc, 1)
				if len(res.Cells) == 0 {
					b.Fatal("empty Fig8 result")
				}
			}
		})
	}
}

// BenchmarkParseThroughput measures trained-parser decoding at Workers=1 vs
// Workers=NumCPU over one shared parser. Decoding draws all per-call state
// from pooled arena-backed contexts, so the parallel leg must scale with
// cores (>1.5x on a multi-core runner) and the steady state must be
// near-zero allocs/op — the returned token slice is the only allocation.
// The ratio of the two legs is the inference-side parallel speedup.
func BenchmarkParseThroughput(b *testing.B) {
	values := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	verbs := []string{"post", "send", "note"}
	var pairs []model.Pair
	for _, v := range values {
		for _, vb := range verbs {
			pairs = append(pairs, model.Pair{
				Src: []string{vb, v, "now"},
				Tgt: []string{"now", "=>", "@svc." + vb, "param:text", "=", `"`, v, `"`},
			})
		}
	}
	cfg := benchTrainCfg
	cfg.Epochs = 3
	p := model.Train(pairs, nil, nil, cfg)
	sentences := make([][]string, len(pairs))
	for i := range pairs {
		sentences[i] = pairs[i].Src
	}
	for _, s := range sentences {
		p.Parse(s) // warm the graph pool and scratch buffers
	}

	workersList := []int{1}
	if n := goruntime.NumCPU(); n > 1 {
		workersList = append(workersList, n)
	} else {
		fmt.Println("single-CPU runner: skipping the workers=NumCPU leg (no speedup measurable)")
	}
	for _, workers := range workersList {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if out := p.Parse(sentences[i%len(sentences)]); len(out) == 0 {
							b.Error("empty decode")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkBatcherServe measures serve.Batcher's dispatch on both sides of its
// load curve, over one trained parser and default Options. lone: one caller,
// so every request finds a free worker and is pulled at once — ns/op must
// sit within two goroutine handoffs (tens of µs) of the same sentences
// through a bare Parse, reported beside it as parse-ns/op; a gather timer
// would add its whole wait here. saturated: 4×MaxBatch callers, so requests
// queue behind the busy pool and are pulled as windows — reports the realized
// mean batch size (must exceed 1) and sentences/s.
func BenchmarkBatcherServe(b *testing.B) {
	pairs := benchBatchPairs()
	cfg := benchTrainCfg
	cfg.Epochs = 3
	p := model.Train(pairs, nil, nil, cfg)
	sentences := make([][]string, len(pairs))
	for i := range pairs {
		sentences[i] = pairs[i].Src
	}
	for _, s := range sentences {
		p.Parse(s) // warm the graph pool and scratch buffers
	}
	ctx := context.Background()

	b.Run("lone", func(b *testing.B) {
		bt := serve.NewBatcher(p, serve.Options{})
		defer bt.Close()
		// The reference runs in blocks between the timed blocks, so a slow
		// stretch of the machine lands on both sides of the comparison.
		const block = 100
		var parseTime time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for base := 0; base < b.N; base += block {
			end := min(base+block, b.N)
			b.StopTimer()
			start := time.Now()
			for i := base; i < end; i++ {
				p.Parse(sentences[i%len(sentences)])
			}
			parseTime += time.Since(start)
			b.StartTimer()
			for i := base; i < end; i++ {
				if _, err := bt.ParseContextCtx(ctx, sentences[i%len(sentences)], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		parseNs := float64(parseTime.Nanoseconds()) / float64(b.N)
		b.ReportMetric(parseNs, "parse-ns/op")
	})
	b.Run("saturated", func(b *testing.B) {
		bt := serve.NewBatcher(p, serve.Options{})
		defer bt.Close()
		const callers = 4 * 8 // 4×MaxBatch, under the default MaxQueue of 64
		b.ReportAllocs()
		b.ResetTimer()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= b.N {
						return
					}
					if _, err := bt.ParseContextCtx(ctx, sentences[i%len(sentences)], nil); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		st := bt.Stats()
		b.ReportMetric(float64(st.Requests)/float64(max(st.Batches, 1)), "batch-mean")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sentences/s")
	})
}

func BenchmarkParameterExpansion(b *testing.B) {
	lib := thingpedia.Builtin()
	d := genie.BuildData(lib, nltemplate.DefaultOptions, genie.Unit, 1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TrainingExamples(genie.StrategyGenie, rng)
	}
}
