package model

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
)

// variedPairs mixes source and target lengths so batched tests exercise the
// padding and masking machinery, not just the stacked kernels.
func variedPairs() []Pair {
	return []Pair{
		{Src: []string{"tweet", "alpha", "now"},
			Tgt: []string{"now", "=>", "@twitter.post", "param:text", "=", `"`, "alpha", `"`}},
		{Src: []string{"email", "bravo"},
			Tgt: []string{"now", "=>", "@gmail.send", "param:text", "=", `"`, "bravo", `"`, "please"}},
		{Src: []string{"note", "charlie", "now", "quickly"},
			Tgt: []string{"now", "=>", "@notes.create"}},
		{Src: []string{"send", "delta", "to", "echo", "chat"},
			Tgt: []string{"now", "=>", "@chat.send", "param:to", "=", "echo"}},
	}
}

// TestLossBatchMatchesMeanOfSingles is the headline parity property of the
// padded-minibatch path: the batched teacher-forced loss over B mixed-length
// pairs equals the mean of the B single-example losses within 1e-9.
func TestLossBatchMatchesMeanOfSingles(t *testing.T) {
	pairs := variedPairs()
	cfg := testConfig(11)
	p := buildParser(pairs, nil, cfg)

	gs := nn.NewGraphArena(false, nn.NewArena())
	mean := 0.0
	for i := range pairs {
		gs.Reset()
		mean += p.loss(gs, &pairs[i])
	}
	mean /= float64(len(pairs))

	gb := nn.NewGraphArena(false, nn.NewArena())
	got := p.lossBatch(gb, pairs)
	if math.Abs(got-mean) > 1e-9 {
		t.Errorf("lossBatch = %.15g, mean of single losses = %.15g (diff %g)", got, mean, got-mean)
	}

	// Without the pointer mechanism too (the onesGate path).
	cfg2 := testConfig(12)
	cfg2.PointerGen = false
	p2 := buildParser(pairs, nil, cfg2)
	mean = 0
	for i := range pairs {
		gs.Reset()
		mean += p2.loss(gs, &pairs[i])
	}
	mean /= float64(len(pairs))
	gb.Reset()
	if got := p2.lossBatch(gb, pairs); math.Abs(got-mean) > 1e-9 {
		t.Errorf("-pointer lossBatch = %.15g, mean of singles = %.15g", got, mean)
	}
}

// TestStepBatchMatchesStepAtB1 pins that a one-pair StepBatch follows Step's
// exact trajectory — same losses step after step through the shared Adam
// state, including dropout (the batched path consumes the RNG in the same
// order at B=1).
func TestStepBatchMatchesStepAtB1(t *testing.T) {
	pairs := variedPairs()
	cfg := testConfig(13)
	cfg.Dropout = 0.1
	a := NewTrainer(pairs, nil, cfg)
	b := NewTrainer(pairs, nil, cfg)
	for s := 0; s < 12; s++ {
		pr := pairs[s%len(pairs)]
		la := a.Step(&pr)
		lb := b.StepBatch([]Pair{pr})
		if math.Abs(la-lb) > 1e-12*(1+math.Abs(la)) {
			t.Fatalf("step %d: Step loss %.15g, StepBatch(1) loss %.15g", s, la, lb)
		}
	}
}

// TestStepBatchSteadyStateAllocs: the minibatch step keeps the arena
// property — once buffers are warm it stays within a small fixed budget — on
// a multi-core host and at the width and dimensions training runs at (B=16,
// the unit preset's 48/64), where the kernels once forked goroutines per
// call and a step cost ~900 allocations. testing.AllocsPerRun cannot see
// that — it pins GOMAXPROCS to 1 for the measurement — so the mallocs are
// counted here.
func TestStepBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var pairs []Pair
	for len(pairs) < 16 {
		pairs = append(pairs, variedPairs()...)
	}
	pairs = pairs[:16]
	cfg := Config{EmbedDim: 48, HiddenDim: 64, LR: 1e-3, Dropout: 0.1, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 1}
	tr := NewTrainer(pairs, nil, cfg)
	for i := 0; i < 3; i++ {
		tr.StepBatch(pairs)
	}
	const budget, runs = 16, 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tr.StepBatch(pairs)
	}
	runtime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / runs; n > budget {
		t.Errorf("steady-state StepBatch allocates %v, budget %d", n, budget)
	}
}

// TestTrainBatchedLearnsToyTask reruns the copy-generalization check through
// the minibatch fit path (BatchSize > 1).
func TestTrainBatchedLearnsToyTask(t *testing.T) {
	train, val := toyPairs()
	cfg := testConfig(14)
	cfg.BatchSize = 4
	cfg.Epochs = 40
	p := Train(train, nil, nil, cfg)
	correct := 0
	for _, pair := range val {
		if strings.Join(p.Parse(pair.Src), " ") == strings.Join(pair.Tgt, " ") {
			correct++
		}
	}
	if correct < len(val)*2/3 {
		for _, pair := range val {
			t.Logf("src=%v got=%v want=%v", pair.Src, p.Parse(pair.Src), pair.Tgt)
		}
		t.Fatalf("batched training copy generalization too weak: %d/%d", correct, len(val))
	}
}

// TestLMPretrainBatchedRuns covers the batched LM pre-training path.
func TestLMPretrainBatchedRuns(t *testing.T) {
	train, val := toyPairs()
	cfg := testConfig(15)
	cfg.PretrainLM = true
	cfg.LMSteps = 60
	cfg.BatchSize = 4
	cfg.Epochs = 10
	var lm [][]string
	for _, p := range train {
		lm = append(lm, p.Tgt)
	}
	p := Train(train, val, lm, cfg)
	out := p.Parse(train[0].Src)
	if len(out) == 0 || out[0] != "now" {
		t.Errorf("unexpected decode after batched LM pretraining: %v", out)
	}
}

// batchTestSentences builds mixed-length inputs (including words the parser
// never saw) so the batched decoders pad and mask across requests.
func batchTestSentences() [][]string {
	train, val := toyPairs()
	var out [][]string
	for _, pr := range append(train[:8:8], val...) {
		out = append(out, pr.Src)
	}
	out = append(out,
		[]string{"tweet", "zulu"},
		[]string{"email", "yankee", "now", "please"},
		[]string{}, // empty input decodes to nothing on both paths
		[]string{"note", "xray", "now", "now", "now"},
	)
	return out
}

// TestParseBatchParallelMatchesSequential is the serving-side parity
// property: batched greedy and beam decode emit token-identical outputs to
// the per-sentence Parse/ParseBeam paths, for mixed-length windows, under
// concurrency (run with -race in CI). The batched contextual beam is held to
// the row contextual beam the same way, tokens and scores.
func TestParseBatchParallelMatchesSequential(t *testing.T) {
	cp := trainedCtxToyParser()
	var ctxRows []Row
	dtrain, dval := toyDialoguePairs()
	for _, pr := range append(dtrain[:12:12], dval...) {
		if len(pr.Ctx) > 0 {
			ctxRows = append(ctxRows, Row{Words: pr.Src, Context: pr.Ctx})
		}
	}
	ctxRows[1].Words = append(append([]string(nil), ctxRows[1].Words...), "please", "please")
	ctxRows[2].Context = append(append([]string(nil), ctxRows[2].Context...), "on", "monday")
	for lo := 0; lo+5 <= len(ctxRows); lo += 4 {
		window := ctxRows[lo : lo+5]
		for i, got := range cp.Decode(window, Policy{Beam: 3}) {
			want := decodeOne(cp, window[i].Words, window[i].Context, Policy{Beam: 3})
			if joinTokens(got.Tokens) != joinTokens(want.Tokens) || got.Score != want.Score {
				t.Errorf("contextual beam window [%d..] row %d: batch (%v, %v) != row (%v, %v)", lo, i, got.Tokens, got.Score, want.Tokens, want.Score)
			}
		}
	}

	p := trainedToyParser()
	sentences := batchTestSentences()

	wantGreedy := make([]string, len(sentences))
	wantBeam := make([]string, len(sentences))
	nonEmpty := false
	for i, s := range sentences {
		wantGreedy[i] = joinTokens(p.Parse(s))
		wantBeam[i] = joinTokens(p.ParseBeam(s, 3))
		nonEmpty = nonEmpty || wantGreedy[i] != ""
	}
	if !nonEmpty {
		t.Fatal("trained parser decodes nothing; test would be vacuous")
	}

	check := func(t *testing.T, lo, hi int) {
		window := sentences[lo:hi]
		got := p.ParseBatch(window)
		for i, toks := range got {
			if joinTokens(toks) != wantGreedy[lo+i] {
				t.Errorf("ParseBatch[%d..%d] row %d = %q, Parse = %q", lo, hi, i, joinTokens(toks), wantGreedy[lo+i])
			}
		}
		for i, d := range p.Decode(toRows(window, nil), Policy{Beam: 3}) {
			if joinTokens(d.Tokens) != wantBeam[lo+i] {
				t.Errorf("beam Decode[%d..%d] row %d = %q, ParseBeam = %q", lo, hi, i, joinTokens(d.Tokens), wantBeam[lo+i])
			}
		}
	}

	// Whole set, singleton window, and a sliding mid-size window.
	check(t, 0, len(sentences))
	check(t, 2, 3)
	for lo := 0; lo+4 <= len(sentences); lo += 3 {
		check(t, lo, lo+4)
	}

	// Concurrent batched decodes over one shared parser.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				lo := (w + rep) % (len(sentences) - 4)
				check(t, lo, lo+4)
			}
		}(w)
	}
	wg.Wait()
}

// TestParseBeamBatchWidthOneIsGreedy mirrors the sequential fallback.
func TestParseBeamBatchWidthOneIsGreedy(t *testing.T) {
	p := trainedToyParser()
	sentences := batchTestSentences()[:4]
	greedy := p.ParseBatch(sentences)
	beam1 := p.Decode(toRows(sentences, nil), Policy{Beam: 1})
	for i := range sentences {
		if joinTokens(greedy[i]) != joinTokens(beam1[i].Tokens) {
			t.Errorf("width-1 beam batch differs from greedy batch on %v", sentences[i])
		}
	}
}
