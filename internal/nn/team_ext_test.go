package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/thingtalk"
)

// digestPairs mixes source and target lengths, so batches pad and rows drop
// out as their sequences end (model's variedPairs).
func digestPairs() []model.Pair {
	pairs := []model.Pair{
		{Src: []string{"tweet", "alpha", "now"},
			Tgt: []string{"now", "=>", "@twitter.post", "param:text", "=", `"`, "alpha", `"`}},
		{Src: []string{"email", "bravo"},
			Tgt: []string{"now", "=>", "@gmail.send", "param:text", "=", `"`, "bravo", `"`, "please"}},
		{Src: []string{"note", "charlie", "now", "quickly"},
			Tgt: []string{"now", "=>", "@notes.create"}},
		{Src: []string{"send", "delta", "to", "echo", "chat"},
			Tgt: []string{"now", "=>", "@chat.send", "param:to", "=", "echo"}},
	}
	var pool []model.Pair
	for len(pool) < 19 {
		pool = append(pool, pairs...)
	}
	return pool
}

func weightDigest(p *model.Parser) string {
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

// TestStepBatchDigestClaimedBack is model's TestStepBatchDigest — 30
// StepBatch calls over windows of 16, 7 and 13 mixed-length pairs, with
// dropout — with every split part claimed back by its caller, at GOMAXPROCS
// 1, 2 and 4: it lands on the weight digests and summed loss bits recorded
// there.
func TestStepBatchDigestClaimedBack(t *testing.T) {
	defer nn.ForceClaimBack()()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pool := digestPairs()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			pointer      bool
			digest, loss string
		}{
			{true, "4d1ed1d7eaace9636660062b27fd669d341e6a75817de625add31741f6cac3de", "403859dbaf8b9e6c"},
			{false, "546dfc84974811b18b09a9c55b9596722f9c001234a27a8fc6c169d5c300d201", "40343bd006df1254"},
		} {
			cfg := model.Config{EmbedDim: 48, HiddenDim: 64, LR: 1e-2, Dropout: 0.1, Epochs: 1,
				EvalEvery: 1 << 30, PointerGen: tc.pointer, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 3}
			tr := model.NewTrainer(pool, nil, cfg)
			var loss float64
			for s := 0; s < 30; s++ {
				size := [...]int{16, 7, 13}[s%3]
				lo := s % (len(pool) - size + 1)
				loss += tr.StepBatch(pool[lo : lo+size])
			}
			if got := weightDigest(tr.Parser()); got != tc.digest {
				t.Errorf("GOMAXPROCS %d, pointer=%v: weight digest %s, recorded %s", procs, tc.pointer, got, tc.digest)
			}
			if got := strconv.FormatUint(math.Float64bits(loss), 16); got != tc.loss {
				t.Errorf("GOMAXPROCS %d, pointer=%v: summed loss bits %s, recorded %s", procs, tc.pointer, got, tc.loss)
			}
		}
	}
}

// TestInferencePostsNothing: decoding — Parse, ParseBeam at width 3, a
// Decode of 8 rows, EvaluateBatched — posts no job to the helpers, on a
// multi-core host, right after training has kept them busy; and no other
// graph that is not a split step does either: a B=1 Trainer.Step, and a
// four-row product with its bias run backward as it was called, through
// Backward and BackwardStep — each with two parameter gradients or more to
// share out, were its reductions split.
func TestInferencePostsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	pool := digestPairs()
	cfg := model.Config{EmbedDim: 24, HiddenDim: 32, LR: 1e-2, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 9}
	tr := model.NewTrainer(pool, nil, cfg)
	before, _ := nn.TeamCounts()
	for s := 0; s < 3; s++ {
		tr.StepBatch(pool[:16])
	}
	if posted, _ := nn.TeamCounts(); posted == before {
		t.Fatal("a B=16 training step posted no job")
	}
	p := tr.Parser()
	gold, err := thingtalk.ParseProgram("now => notify")
	if err != nil {
		t.Fatal(err)
	}
	var rows []model.Row
	var examples []dataset.Example
	for _, pair := range pool[:8] {
		rows = append(rows, model.Row{Words: pair.Src})
		examples = append(examples, dataset.Example{Words: pair.Src, Program: gold})
	}
	before, _ = nn.TeamCounts()
	p.Parse(pool[0].Src)
	p.ParseBeam(pool[1].Src, 3)
	p.Decode(rows, model.Policy{})
	eval.EvaluateBatched(p, examples, thingtalk.SchemaMap{}, 4)
	if posted, _ := nn.TeamCounts(); posted != before {
		t.Errorf("decoding posted %d jobs", posted-before)
	}

	before, _ = nn.TeamCounts()
	for s := 0; s < 3; s++ {
		tr.Step(&pool[s])
	}
	if posted, _ := nn.TeamCounts(); posted != before {
		t.Errorf("B=1 training posted %d jobs", posted-before)
	}

	rng := rand.New(rand.NewSource(1))
	lin := nn.NewLinear(8, 6, rng)
	x := nn.NewRandom(4, 8, rng)
	opt := nn.NewAdam(1e-2)
	before, _ = nn.TeamCounts()
	for _, stepped := range []bool{false, true} {
		g := nn.NewGraph(true)
		out := g.BatchedAffine(x, lin.W, lin.B)
		for i := range out.DW {
			out.DW[i] = 1
		}
		if stepped {
			g.BackwardStep(opt, lin.Params())
		} else {
			g.Backward()
		}
	}
	if posted, _ := nn.TeamCounts(); posted != before {
		t.Errorf("a backward outside a split step posted %d jobs", posted-before)
	}
}
