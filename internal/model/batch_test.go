package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
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
// pairs equals the mean of the B one-pair losses within 1e-9, with and
// without the pointer mechanism.
func TestLossBatchMatchesMeanOfSingles(t *testing.T) {
	pairs := variedPairs()
	for _, pointer := range []bool{true, false} {
		cfg := testConfig(11)
		cfg.PointerGen = pointer
		p := buildParser(pairs, nil, cfg)
		g := nn.NewGraphArena(false, nn.NewArena())
		mean := 0.0
		for i := range pairs {
			g.Reset()
			mean += p.lossBatch(g, pairs[i:i+1])
		}
		mean /= float64(len(pairs))
		g.Reset()
		if got := p.lossBatch(g, pairs); math.Abs(got-mean) > 1e-9 {
			t.Errorf("pointer=%v: lossBatch = %.15g, mean of one-pair losses = %.15g (diff %g)", pointer, got, mean, got-mean)
		}
	}
}

// weightDigest is the sha256 of every weight's bits, little-endian, in
// Params() order.
func weightDigest(p *Parser) string {
	h := sha256.New()
	var word [8]byte
	for _, t := range p.Params() {
		for _, v := range t.W {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStepBatchAtB1ReproducesRowStep pins a batch of one to the per-example
// step it replaced: 45 one-pair StepBatch calls on a contextual toy parser,
// with dropout, over first turns and follow-ups, land on the weight digest
// and summed loss bits that 45 calls of that per-example step recorded, with
// the pointer-generator and without.
func TestStepBatchAtB1ReproducesRowStep(t *testing.T) {
	train, _ := toyDialoguePairs()
	for _, tc := range []struct {
		pointer      bool
		digest, loss string
	}{
		{true, "c3b24c364b644f6808c6d2028d3363a8742abe5cf3cd433aa403ef613ac87963", "4055b011018baf97"},
		{false, "40adc9eea3f431868742ebdc18deaf01347653844697856c5bde8016eeaeb9eb", "40563290ca226d7b"},
	} {
		cfg := testConfig(13)
		cfg.Dropout = 0.1
		cfg.Contextual = true
		cfg.PointerGen = tc.pointer
		tr := NewTrainer(train, nil, cfg)
		var loss float64
		for s := 0; s < 45; s++ {
			i := (7 * s) % len(train)
			loss += tr.StepBatch(train[i : i+1])
		}
		if got := weightDigest(tr.Parser()); got != tc.digest {
			t.Errorf("pointer=%v: weight digest %s, per-example step %s", tc.pointer, got, tc.digest)
		}
		if got := strconv.FormatUint(math.Float64bits(loss), 16); got != tc.loss {
			t.Errorf("pointer=%v: summed loss bits %s, per-example step %s", tc.pointer, got, tc.loss)
		}
	}
}

// TestStepBatchDigest pins the batched backward — the input and weight
// gradients of a product over two or more rows, which no B=1 golden reaches —
// to the bits it had before its kernels were rebuilt: 30 StepBatch calls at
// the unit preset's 48/64, with dropout, over windows of 16, 7 and 13
// mixed-length pairs (odd and even active-row counts at every timestep, and
// rows dropping out as their sequences end), land on the recorded weight
// digest and summed loss bits, with the pointer-generator and without.
func TestStepBatchDigest(t *testing.T) {
	var pool []Pair
	for len(pool) < 19 {
		pool = append(pool, variedPairs()...)
	}
	for _, tc := range []struct {
		pointer      bool
		digest, loss string
	}{
		{true, "4d1ed1d7eaace9636660062b27fd669d341e6a75817de625add31741f6cac3de", "403859dbaf8b9e6c"},
		{false, "546dfc84974811b18b09a9c55b9596722f9c001234a27a8fc6c169d5c300d201", "40343bd006df1254"},
	} {
		cfg := Config{EmbedDim: 48, HiddenDim: 64, LR: 1e-2, Dropout: 0.1, Epochs: 1,
			EvalEvery: 1 << 30, PointerGen: tc.pointer, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 3}
		tr := NewTrainer(pool, nil, cfg)
		var loss float64
		for s := 0; s < 30; s++ {
			size := [...]int{16, 7, 13}[s%3]
			lo := s % (len(pool) - size + 1)
			loss += tr.StepBatch(pool[lo : lo+size])
		}
		if got := weightDigest(tr.Parser()); got != tc.digest {
			t.Errorf("pointer=%v: weight digest %s, recorded %s", tc.pointer, got, tc.digest)
		}
		if got := strconv.FormatUint(math.Float64bits(loss), 16); got != tc.loss {
			t.Errorf("pointer=%v: summed loss bits %s, recorded %s", tc.pointer, got, tc.loss)
		}
	}
}

// TestConcurrentTrainersStepBatch: two Trainers on different parsers
// stepping B=16 batches at the same time — the fleet's TrainWorkers: 2, the
// experiment workers — compete for the helper cores of their split ops; each
// still lands on the weights it reaches alone.
func TestConcurrentTrainersStepBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var pool []Pair
	for len(pool) < 19 {
		pool = append(pool, variedPairs()...)
	}
	train := func(seed int64) string {
		cfg := Config{EmbedDim: 32, HiddenDim: 48, LR: 1e-2, Dropout: 0.1, Epochs: 1,
			EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: seed}
		tr := NewTrainer(pool, nil, cfg)
		for s := 0; s < 12; s++ {
			size := [...]int{16, 7, 13}[s%3]
			lo := s % (len(pool) - size + 1)
			tr.StepBatch(pool[lo : lo+size])
		}
		return weightDigest(tr.Parser())
	}
	alone := [2]string{train(21), train(22)}
	var together [2]string
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = train(int64(21 + i))
		}()
	}
	wg.Wait()
	for i := range alone {
		if together[i] != alone[i] {
			t.Errorf("trainer %d: weight digest %s beside another trainer, %s alone", i, together[i], alone[i])
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
