package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/dialogue"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/nn"
	"repro/internal/params"
	"repro/internal/paraphrase"
	"repro/internal/serve"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// This file is the traced run (--trace 1). It measures every layer from the
// outside, by timing calls into public functions of the packages, and records
// a span around each call. It never contributes end-to-end numbers.
//
// The serving layers are peeled: the same request list is replayed by one
// closed-loop client at five nested entry points, innermost first, and a
// layer's self time is its median minus the median of the entry point inside
// it.

// peelLayers names the five nested entry points, innermost first.
var peelLayers = []string{"model.parse", "serve.batcher", "fleet.route", "fleet.http", "gateway.http"}

// Shares of --seconds for the traced run's timed parts; the kernels and
// pipeline stages share what is left in slices of microBudget.
const (
	peelShare       = 0.2
	tracedOpen      = 0.15
	batcherOpen     = 0.1
	offlineShare    = 0.2
	microBudget     = 0.012 // of --seconds, per micro measurement
	peelMinUnits    = 30
	microMinSamples = 5
)

// timeCalls times fn for the budget and returns the median duration of one
// call. Calls are timed in samples of equal work, sized after an untimed
// warm-up call so that a sample lasts at least sampleFloor and the clock reads
// do not weigh on a microsecond kernel; each sample is one span of the layer.
func (r *run) timeCalls(rec *recorder, layer string, fn func()) time.Duration {
	const sampleFloor = 200 * time.Microsecond
	t0 := time.Now()
	fn()
	reps := int(sampleFloor/max(time.Since(t0), time.Nanosecond)) + 1
	trace := rec.id()
	deadline := time.Now().Add(phase(r.seconds, microBudget))
	var ns []float64
	for len(ns) < microMinSamples || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		t1 := time.Now()
		rec.add(rec.id(), trace, 0, layer, t0, t1)
		ns = append(ns, float64(t1.Sub(t0))/float64(reps))
	}
	return time.Duration(median(ns))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the traced run: it reports every per-layer metric and writes
// the spans to traceOut.
func (r *run) runTraced(traceOut string) error {
	rec := newRecorder()
	s, _, err := r.prepare()
	if err != nil {
		return err
	}
	defer s.close()
	r.check = newChecker(s.schemas())
	r.set("fleet.cold_start_train_s", s.trainS, "s")
	r.set("fleet.cold_start_other_s", s.setupS-s.trainS, "s")

	batchers := map[string]*serve.Batcher{}
	for name, tr := range s.skills {
		batchers[name] = serve.NewBatcher(tr.parser, serve.Options{})
	}
	defer func() {
		for _, b := range batchers {
			b.Close()
		}
	}()

	if err := r.peel(rec, s, batchers); err != nil {
		return err
	}
	r.tracedOpenLoops(rec, s, batchers)

	tr := s.skills[r.w.skills[0]]
	pairs := trainingPairs(tr.data, r.w.recipe)
	if err := r.offlineLayers(s.skills); err != nil {
		return err
	}
	r.modelLayers(rec, tr)
	r.grammarLayers(rec, tr, pairs)
	r.kernelLayers(rec, tr)
	r.trainingLayers(rec, pairs)
	r.pipelineLayers(rec, tr.lib)
	if err := r.evalLayers(rec, tr); err != nil {
		return err
	}
	if err := r.snapshotLayers(rec, tr); err != nil {
		return err
	}
	r.dialogueLayers(rec)
	r.set("proc.peak_rss_mb", peakRSSMB(), "MB")

	fmt.Fprintf(r.out, "trace: %d spans to %s\n", len(rec.spans), traceOut)
	return writeSpans(traceOut, rec.spans)
}

// peel replays one request list through the five entry points. Every request
// is sent to each of them in turn, innermost first, so all five medians come
// from the same inputs under the same conditions; their replies must agree.
func (r *run) peel(rec *recorder, s *stack, batchers map[string]*serve.Batcher) error {
	ctx := context.Background()
	// Both HTTP levels use the load generator's own client, so that they send
	// the same bytes and differ only in the server they reach.
	fl := newHTTPSender(s.fleetSrv.URL, 1)
	defer fl.close()
	gw := newHTTPSender(s.gwSrv.URL, 1)
	defer gw.close()

	// The upper three levels find the context in the fleet's session store,
	// so each gets session ids of its own; the lower two are handed the
	// previous reply.
	withSession := func(q *request, prefix string) *request {
		c := *q
		if c.session != "" {
			c.session = prefix + c.session
		}
		return &c
	}
	levels := []sendFunc{
		func(_ context.Context, q *request, prior []string) ([]string, error) {
			return s.skills[q.skill].parser.ParseContext(q.words, prior), nil
		},
		func(ctx context.Context, q *request, prior []string) ([]string, error) {
			return batchers[q.skill].ParseContextCtx(ctx, q.words, prior)
		},
		func(ctx context.Context, q *request, _ []string) ([]string, error) {
			toks, _, err := s.reg.ParseSession(ctx, q.skill, withSession(q, "l3-").session, q.words, nil)
			return toks, err
		},
		func(ctx context.Context, q *request, prior []string) ([]string, error) {
			return fl.send(ctx, withSession(q, "l4-"), prior)
		},
		func(ctx context.Context, q *request, prior []string) ([]string, error) {
			return gw.send(ctx, withSession(q, "l5-"), prior)
		},
	}

	budget := phase(r.seconds, peelShare)
	list := generate(r.w, r.pool, r.seedFor(5), "p", 0, 0, closedUnits(budget))
	deadline := time.Now().Add(budget)
	durs := make([][]float64, len(levels))
	tokens := 0
	stats := &loadStats{}
	units := 0
	for _, head := range list.arrivals {
		if units >= peelMinUnits && !time.Now().Before(deadline) {
			break
		}
		units++
		var prior []string
		for q := head; q != nil; q = q.next {
			trace, root := rec.id(), rec.id()
			rootStart := time.Now()
			var replies [][]string
			for li, send := range levels {
				t0 := time.Now()
				toks, err := send(ctx, q, prior)
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("peel: %s: %w", peelLayers[li], err)
				}
				rec.add(rec.id(), trace, root, peelLayers[li], t0, t1)
				durs[li] = append(durs[li], float64(t1.Sub(t0))/1e6)
				replies = append(replies, toks)
				if li == len(levels)-1 {
					stats.results = append(stats.results, result{req: q, prior: prior, due: t0, sent: t0, done: t1, tokens: toks})
				}
			}
			rec.add(root, trace, 0, "bench.replay", rootStart, time.Now())
			for li := 1; li < len(replies); li++ {
				if strings.Join(replies[li], " ") != strings.Join(replies[0], " ") {
					return fmt.Errorf("peel: %s answered %q, %s answered %q for %q", peelLayers[0], replies[0], peelLayers[li], replies[li], q.words)
				}
			}
			tokens += len(replies[0])
			prior = replies[0]
		}
	}
	r.check.account(r.out, "peel", stats)

	med := make([]float64, len(levels))
	for i := range durs {
		med[i] = median(durs[i])
	}
	fmt.Fprintf(r.out, "peel: %d requests at each of %v, medians %.3f ms\n", len(durs[0]), peelLayers, med)
	r.set("model.parse_ms", med[0], "ms")
	r.set("serve.batcher_self_ms", med[1]-med[0], "ms")
	r.set("fleet.route_self_ms", med[2]-med[1], "ms")
	r.set("fleet.http_self_ms", med[3]-med[2], "ms")
	r.set("gateway.hop_self_ms", med[4]-med[3], "ms")
	r.set("model.tokens_out_mean", float64(tokens)/float64(len(durs[0])), "count")
	sum := 0.0
	for _, d := range durs[0] {
		sum += d
	}
	r.set("model.parse_us_per_token", 1000*sum/float64(max(tokens, 1)), "us")
	return nil
}

// tracedOpenLoops replays the workload's arrival schedule twice with spans
// on: against the gateway, for the tail, the generator's own lateness and the
// process counters; and against a batcher directly, for the batch window
// under load.
func (r *run) tracedOpenLoops(rec *recorder, s *stack, batchers map[string]*serve.Batcher) {
	ctx := context.Background()
	nproc := runtime.GOMAXPROCS(0)
	hs := newHTTPSender(s.gwSrv.URL, nproc)
	defer hs.close()

	before := s.fleetMetrics()
	gw0 := s.gw.MetricsSnapshot()
	list := generate(r.w, r.pool, r.seedFor(6), "t", r.w.rate, phase(r.seconds, tracedOpen).Seconds(), 0)
	cpu0, m0 := cpuSeconds(), mallocs()
	open := openLoop(ctx, list, nproc, turnGap, hs.send, rec, "gateway.http")
	cpu1, m1 := cpuSeconds(), mallocs()
	r.check.account(r.out, "traced-open", open)
	lat := open.latenciesMS()
	r.set("parse_p95_ms", percentile(lat, 95), "ms")
	r.set("proc.parse_p99_ms", percentile(lat, 99), "ms")
	r.set("loadgen.late_p99_ms", percentile(open.lateMS(), 99), "ms")
	r.set("loadgen.backlog_max", float64(open.backlogMax), "count")
	r.set("proc.cpu_util", (cpu1-cpu0)/(open.wall.Seconds()*float64(nproc)), "ratio")
	r.set("proc.allocs_per_request", float64(m1-m0)/float64(max(len(open.results), 1)), "count")

	gw1 := s.gw.MetricsSnapshot()
	requests := float64(max(gw1.Requests-gw0.Requests, 1))
	r.set("gateway.retries", float64(gw1.Retries-gw0.Retries), "count")
	r.set("gateway.hedges", float64(gw1.Hedges-gw0.Hedges), "count")
	r.set("gateway.sticky_ratio", float64(gw1.Sticky-gw0.Sticky)/requests, "ratio")
	var hits, misses, evictions int64
	for name, m := range s.fleetMetrics() {
		hits += m.SessionHits - before[name].SessionHits
		misses += m.SessionMisses - before[name].SessionMisses
		evictions += m.SessionEvictions - before[name].SessionEvictions
	}
	r.set("dialogue.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.set("dialogue.evictions", float64(evictions), "count")

	// The same schedule straight into a batcher: no HTTP, no routing.
	direct := func(ctx context.Context, q *request, prior []string) ([]string, error) {
		return batchers[q.skill].ParseContextCtx(ctx, q.words, prior)
	}
	list = generate(r.w, r.pool, r.seedFor(7), "b", r.w.rate, phase(r.seconds, batcherOpen).Seconds(), 0)
	st0 := sumStats(batchers)
	bopen := openLoop(ctx, list, nproc, turnGap, direct, rec, "serve.batcher")
	r.check.account(r.out, "batcher-open", bopen)
	st1 := sumStats(batchers)
	blat := bopen.latenciesMS()
	r.set("serve.batcher_open_p50_ms", percentile(blat, 50), "ms")
	r.set("serve.batcher_open_p95_ms", percentile(blat, 95), "ms")
	r.set("serve.batch_mean", float64(st1.Requests-st0.Requests)/float64(max(st1.Batches-st0.Batches, 1)), "count")
	r.set("serve.shed", float64(st1.Shed-st0.Shed), "count")
	r.set("serve.expired", float64(st1.Expired-st0.Expired), "count")
}

// offlineLayers measures the three offline throughputs, segment by segment in
// turn over one window: the recipe's optimizer steps over a fixed slice of its
// training pairs, eval.EvaluateBatched over a fixed sample of the pool, and
// genie.PipelineStream on the library. The issue had them end to end; on the
// reference box identical runs spread them by 12-26%, too close to the 25% a
// bound may be, so they are layer metrics (see README.md).
func (r *run) offlineLayers(skills map[string]*trained) error {
	libs := map[string]*thingpedia.Library{}
	for name, tr := range skills {
		libs[name] = tr.lib
	}
	examples, err := poolExamples(r.w, r.pool, libs)
	if err != nil {
		return err
	}
	first := skills[r.w.skills[0]]
	train, evalc, synth := trainCell(first.data, r.w.recipe), evalCell(r.w, skills, examples), synthCell(first.lib, r.seed)
	if err := roundRobin(phase(r.seconds, offlineShare), train, evalc, synth); err != nil {
		return err
	}
	r.set("train_examples_per_s", upperQuartile(train.rates), "1/s")
	r.set("eval_sentences_per_s", upperQuartile(evalc.rates), "1/s")
	r.set("synth_examples_per_s", upperQuartile(synth.rates), "1/s")
	return nil
}

// sumStats adds up the counters of the benchmark's own batchers.
func sumStats(batchers map[string]*serve.Batcher) serve.Stats {
	var sum serve.Stats
	for _, b := range batchers {
		st := b.Stats()
		sum.Requests += st.Requests
		sum.Batches += st.Batches
		sum.Shed += st.Shed
		sum.Expired += st.Expired
	}
	return sum
}

// sentences returns the pool's utterances of the first skill, and for each
// the decoding context a contextual parser would see (the previous turn's
// gold for session pools, none otherwise).
func (r *run) sentences() (words, contexts [][]string) {
	skill := r.w.skills[0]
	if r.w.class == "session" {
		for _, d := range r.pool.sessions[skill] {
			for k := 1; k < len(d.Turns); k++ {
				words = append(words, strings.Fields(d.Turns[k].Words))
				contexts = append(contexts, strings.Fields(d.Turns[k-1].Gold))
			}
		}
		return words, contexts
	}
	for _, s := range r.pool.singles[skill] {
		words = append(words, strings.Fields(s.Words))
		contexts = append(contexts, nil)
	}
	return words, contexts
}

// modelLayers times the decoder's other public entry points on the pool.
func (r *run) modelLayers(rec *recorder, tr *trained) {
	words, contexts := r.sentences()
	i := 0
	next := func() int { i = (i + 1) % len(words); return i }
	r.set("model.parse_context_ms", ms(r.timeCalls(rec, "model.parse_context", func() {
		k := next()
		tr.parser.ParseContext(words[k], contexts[k])
	})), "ms")
	r.set("model.parse_beam4_ms", ms(r.timeCalls(rec, "model.parse_beam4", func() {
		tr.parser.ParseBeam(words[next()], 4)
	})), "ms")
	window := make([][]string, 8)
	r.set("model.parse_batch8_ms_per_sentence", ms(r.timeCalls(rec, "model.parse_batch8", func() {
		for j := range window {
			window[j] = words[next()]
		}
		tr.parser.ParseBatch(window)
	}))/8, "ms")
}

// grammarLayers replays the pool's gold programs through the grammar
// automaton the way masked decoding does: Legal (or LegalCached) before
// every token, then Step over it.
func (r *run) grammarLayers(rec *recorder, tr *trained, pairs []model.Pair) {
	seqs := make([][]string, len(pairs))
	for i := range pairs {
		seqs[i] = pairs[i].Tgt
	}
	t0 := time.Now()
	vocab := model.BuildVocab(seqs, r.w.recipe.model.MinVocabCount)
	t1 := time.Now()
	rec.add(rec.id(), rec.id(), 0, "model.vocab_build", t0, t1)
	r.set("model.vocab_build_ms", ms(t1.Sub(t0)), "ms")

	spec := grammar.NewSpec(tr.lib.Functions())
	var auto *grammar.Automaton
	r.set("grammar.compile_ms", ms(r.timeCalls(rec, "grammar.compile", func() {
		auto, _ = grammar.Compile(spec, vocab.Tokens())
	})), "ms")
	if auto == nil {
		return
	}
	var golds [][]string
	for _, skill := range r.w.skills[:1] {
		for _, s := range r.pool.singles[skill] {
			golds = append(golds, strings.Fields(s.Gold))
		}
	}
	const maxLen = 48
	var ls grammar.LegalSet
	var cache grammar.LegalCache
	walk := func(cached bool) (steps int) {
		for _, gold := range golds {
			st := auto.Start()
			for t, tok := range gold {
				if cached {
					auto.LegalCached(st, maxLen-t-1, &ls, &cache)
				} else {
					auto.Legal(st, maxLen-t-1, &ls)
				}
				steps++
				id := -1
				if vocab.Has(tok) {
					id = vocab.ID(tok)
				}
				next, err := auto.Step(st, id, tok)
				if err != nil {
					break
				}
				st = next
			}
		}
		return steps
	}
	steps := walk(false)
	plain := r.timeCalls(rec, "grammar.legal", func() { walk(false) })
	memo := r.timeCalls(rec, "grammar.legal_cached", func() { walk(true) })
	r.set("grammar.legal_us", us(plain)/float64(max(steps, 1)), "us")
	r.set("grammar.legal_cached_us", us(memo)/float64(max(steps, 1)), "us")
	hits, misses, _ := cache.Stats()
	r.set("grammar.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
}

// kernelLayers times the decode step's three kernels at the trained model's
// shapes, one row (serving) and sixteen rows (training, offline evaluation).
func (r *run) kernelLayers(rec *recorder, tr *trained) {
	e, h := tr.parser.Dims()
	_, vocab := tr.parser.VocabSizes()
	const srcLen = 12 // a typical utterance of the pools
	rng := rand.New(rand.NewSource(trainSeed))
	cell := nn.NewLSTMCell(e+2*h, h, rng)
	out := nn.NewLinear(h, vocab, rng)
	g := nn.NewGraphArena(false, nn.NewArena())
	fill := func(rows, cols int) *nn.Tensor {
		t := g.NewTensor(rows, cols)
		for i := range t.W {
			t.W[i] = 0.01 * float64(i%7)
		}
		return t
	}
	for _, b := range []int{1, 16} {
		suffix := fmt.Sprintf("_b%d_us", b)
		lens := make([]int, b)
		for i := range lens {
			lens[i] = srcLen
		}
		r.set("nn.lstm_step"+suffix, us(r.timeCalls(rec, "nn.lstm_step", func() {
			g.Reset()
			x, hh, cc := fill(b, e+2*h), fill(b, h), fill(b, h)
			if b == 1 {
				cell.Step(g, x, hh, cc)
			} else {
				cell.StepBatch(g, x, hh, cc, nil)
			}
		})), "us")
		r.set("nn.vocab_proj"+suffix, us(r.timeCalls(rec, "nn.vocab_proj", func() {
			g.Reset()
			x := fill(b, h)
			if b == 1 {
				g.AffineRow(x, out.W, out.B)
			} else {
				g.BatchedAffine(x, out.W, out.B)
			}
		})), "us")
		r.set("nn.attend"+suffix, us(r.timeCalls(rec, "nn.attend", func() {
			g.Reset()
			q, mem := fill(b, 2*h), fill(b*srcLen, 2*h)
			if b == 1 {
				g.AttendSoftmaxContext(q, mem)
			} else {
				g.AttendSoftmaxContextBatch(q, mem, nil, lens)
			}
		})), "us")
	}
	// Multiply-adds of one greedy decode step, computed from the tensor
	// sizes: LSTM gates, attention query, scores and context, the h-tilde
	// combination, the vocabulary projection and the copy gate.
	flops := 2 * ((e+2*h)*4*h + h*4*h + h*2*h + 2*srcLen*2*h + 3*h*h + h*vocab + h)
	r.set("nn.flops_per_decode_step", float64(flops), "flops")
}

// trainingLayers times one optimizer step at B=16 and B=1 on the recipe's
// own pairs.
func (r *run) trainingLayers(rec *recorder, pairs []model.Pair) {
	cfg := trainerConfig(r.w.recipe)
	tr := model.NewTrainer(pairs, nil, cfg)
	k := 0
	batch := func(n int) []model.Pair {
		k = (k + n) % (len(pairs) - n)
		return pairs[k : k+n]
	}
	r.set("model.step_b16_ms", ms(r.timeCalls(rec, "model.step_b16", func() { tr.StepBatch(batch(16)) })), "ms")
	r.set("model.step_b1_ms", ms(r.timeCalls(rec, "model.step_b1", func() { tr.Step(&batch(1)[0]) })), "ms")
	fixed := batch(16)
	tr.StepBatch(fixed)
	m0 := mallocs()
	const steps = 5
	for i := 0; i < steps; i++ {
		tr.StepBatch(fixed)
	}
	r.set("model.step_allocs", float64(mallocs()-m0)/steps, "count")

	// Padding of an epoch cut into minibatches of 16 after length bucketing.
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &pairs[order[i]], &pairs[order[j]]
		return len(a.Src)+len(a.Tgt) < len(b.Src)+len(b.Tgt)
	})
	r.set("model.padding_fraction", model.PaddingFraction(pairs, order, 16), "ratio")
}

// pipelineLayers times the stages of the data pipeline one by one on the
// workload's library at genie.Unit's settings.
func (r *run) pipelineLayers(rec *recorder, lib *thingpedia.Library) {
	scale := genie.Unit
	path := filepath.Join(benchDir, "skills", r.w.libDir, r.w.skills[0]+".tt")
	r.set("thingpedia.load_ms", ms(r.timeCalls(rec, "thingpedia.load", func() {
		_, _ = thingpedia.LoadLibraryFile(path)
	})), "ms")
	var g *nltemplate.Grammar
	r.set("nltemplate.grammar_build_ms", ms(r.timeCalls(rec, "nltemplate.grammar_build", func() {
		g = nltemplate.StandardGrammar(lib, nltemplate.DefaultOptions)
	})), "ms")

	var raw []synthesis.Example
	d := r.timeCalls(rec, "synthesis.synthesize", func() {
		raw = synthesis.Synthesize(g, synthesis.Config{TargetPerRule: scale.SynthTarget, MaxDepth: scale.MaxDepth, Seed: r.seed, Schemas: lib})
	})
	r.set("synthesis.examples_per_s", float64(len(raw))/d.Seconds(), "1/s")

	synth := make([]dataset.Example, len(raw))
	for i := range raw {
		synth[i] = dataset.Example{Words: raw[i].Words, Program: raw[i].Program, Group: dataset.GroupSynthesized, Depth: raw[i].Depth}
	}
	selected := paraphrase.SelectForParaphrase(synth, lib, scale.ParaphraseMax, rand.New(rand.NewSource(r.seed)))
	var res paraphrase.Result
	r.set("paraphrase.simulate_ms", ms(r.timeCalls(rec, "paraphrase.simulate", func() {
		res = paraphrase.Simulate(selected, paraphrase.Config{Seed: r.seed})
	})), "ms")
	r.set("paraphrase.accept_ratio", float64(len(res.Paraphrases))/float64(max(len(res.Paraphrases)+res.Discarded, 1)), "ratio")

	sampler := params.NewSampler()
	var expanded []dataset.Example
	d = r.timeCalls(rec, "augment.expand", func() {
		expanded = augment.Expand(synth, scale.Factors, sampler, rand.New(rand.NewSource(r.seed)))
	})
	r.set("augment.expand_examples_per_s", float64(len(expanded))/d.Seconds(), "1/s")

	d = r.timeCalls(rec, "genie.to_pairs", func() {
		genie.ToPairs(expanded, genie.CanonicalTargets, lib, rand.New(rand.NewSource(r.seed)))
	})
	r.set("genie.to_pairs_per_s", float64(len(expanded))/d.Seconds(), "1/s")
}

// goldDecoder answers every sentence with its gold program, so that scoring
// alone (parse, typecheck, canonicalize, compare) is what gets timed.
type goldDecoder map[string][]string

func (g goldDecoder) Parse(words []string) []string { return g[strings.Join(words, " ")] }

func (r *run) evalLayers(rec *recorder, tr *trained) error {
	skill := r.w.skills[0]
	examples, err := poolExamples(r.w, r.pool, map[string]*thingpedia.Library{skill: tr.lib})
	if err != nil {
		return err
	}
	ex := examples[skill]
	dec := goldDecoder{}
	var golds [][]string
	for _, s := range r.pool.singles[skill] {
		dec[s.Words] = strings.Fields(s.Gold)
		golds = append(golds, strings.Fields(s.Gold))
	}
	var rep eval.Report
	d := r.timeCalls(rec, "eval.score", func() { rep = eval.Evaluate(dec, ex, tr.lib) })
	if rep.Correct != rep.Total {
		return fmt.Errorf("eval: gold scored %d of %d against itself", rep.Correct, rep.Total)
	}
	r.set("eval.score_us_per_example", us(d)/float64(len(ex)), "us")
	d = r.timeCalls(rec, "thingtalk.check", func() {
		for _, g := range golds {
			if p, err := thingtalk.ParseTokens(g, thingtalk.ParseOptions{Schemas: tr.lib}); err == nil {
				_ = thingtalk.Typecheck(p, tr.lib)
			}
		}
	})
	r.set("thingtalk.check_us_per_program", us(d)/float64(len(golds)), "us")
	return nil
}

// snapshotLayers times the three ways a parser is persisted and read back.
func (r *run) snapshotLayers(rec *recorder, tr *trained) error {
	path := filepath.Join(r.scratch, "layers.snapshot")
	var err error
	r.set("model.snapshot_save_ms", ms(r.timeCalls(rec, "model.snapshot_save", func() {
		if e := tr.parser.SaveFile(path); e != nil {
			err = e
		}
	})), "ms")
	r.set("model.snapshot_load_ms", ms(r.timeCalls(rec, "model.snapshot_load", func() {
		if _, e := model.LoadFile(path); e != nil {
			err = e
		}
	})), "ms")
	if info, e := os.Stat(path); e == nil {
		r.set("model.snapshot_bytes", float64(info.Size()), "bytes")
	} else {
		err = e
	}
	store := durable.Open(filepath.Join(r.scratch, "durable"), durable.Options{})
	r.set("durable.save_ms", ms(r.timeCalls(rec, "durable.save", func() {
		if e := store.Save("parser", tr.parser.Save); e != nil {
			err = e
		}
	})), "ms")
	r.set("durable.load_ms", ms(r.timeCalls(rec, "durable.load", func() {
		if e := store.Load("parser", func(rd io.Reader) error { _, e := model.Load(rd); return e }); e != nil {
			err = e
		}
	})), "ms")
	return err
}

// dialogueLayers times the session store at the serving capacity: reads of
// live sessions beside writes of new ones that evict the oldest.
func (r *run) dialogueLayers(rec *recorder) {
	store := dialogue.NewStore(sessionCapacity)
	program := strings.Fields("now => @io.home.lights.set_power param:power:Enum(on,off) = enum:on")
	ids := make([]string, 4*sessionCapacity)
	for i := range ids {
		ids[i] = "s" + strconv.Itoa(i)
	}
	const batch = 1024
	n := 0
	put := r.timeCalls(rec, "dialogue.put", func() {
		for i := 0; i < batch; i++ {
			n++
			store.Put(ids[n%len(ids)], "skill", program)
		}
	})
	get := r.timeCalls(rec, "dialogue.get", func() {
		for i := 0; i < batch; i++ {
			n++
			store.Get(ids[n%len(ids)], "skill")
		}
	})
	r.set("dialogue.put_ns", float64(put)/batch, "ns")
	r.set("dialogue.get_ns", float64(get)/batch, "ns")
}
