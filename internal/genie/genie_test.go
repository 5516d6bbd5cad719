package genie

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

func buildUnitData(t testing.TB) *Data {
	t.Helper()
	lib := thingpedia.Builtin()
	return BuildData(lib, nltemplate.DefaultOptions, Unit, 1)
}

func TestBuildDataShape(t *testing.T) {
	d := buildUnitData(t)
	if len(d.Synth) < 500 {
		t.Fatalf("too little synthesized data: %d", len(d.Synth))
	}
	if len(d.Paraphrases) < 200 {
		t.Fatalf("too few paraphrases: %d", len(d.Paraphrases))
	}
	if len(d.ParaTest) == 0 || len(d.Validation) == 0 || len(d.Cheatsheet) == 0 || len(d.IFTTT) == 0 {
		t.Fatalf("evaluation sets empty: para=%d val=%d cheat=%d ifttt=%d",
			len(d.ParaTest), len(d.Validation), len(d.Cheatsheet), len(d.IFTTT))
	}
	if len(d.HeldOutCombos) == 0 {
		t.Fatal("no held-out combinations")
	}
	// Evaluation sets must be fully instantiated (no slots) and well typed.
	for _, set := range [][]dataset.Example{d.ParaTest, d.Validation, d.Cheatsheet, d.IFTTT} {
		for i := range set {
			for _, w := range set[i].Words {
				if len(w) > 7 && w[:7] == "__slot_" {
					t.Fatalf("uninstantiated slot in eval sentence: %s", set[i].Sentence())
				}
			}
			if err := thingtalk.Typecheck(set[i].Program, d.Lib); err != nil {
				t.Fatalf("eval program fails typecheck: %v\n%s", err, set[i].Program)
			}
		}
	}
	t.Logf("synth=%d para=%d (discarded %d, novelty %.0f%% words / %.0f%% bigrams) paraTest=%d val=%d cheat=%d ifttt=%d",
		len(d.Synth), len(d.Paraphrases), d.Discarded,
		d.ParaNovelty.NewWordRate, d.ParaNovelty.NewBigramRate,
		len(d.ParaTest), len(d.Validation), len(d.Cheatsheet), len(d.IFTTT))
}

func TestTrainingExamplesRespectHoldout(t *testing.T) {
	d := buildUnitData(t)
	rng := rand.New(rand.NewSource(9))
	for _, s := range []Strategy{StrategyGenie, StrategySynthesizedOnly, StrategyParaphraseOnly, StrategyBaseline} {
		train := d.TrainingExamples(s, rng)
		if len(train) == 0 {
			t.Fatalf("strategy %s produced no training data", s)
		}
		for i := range train {
			if d.HeldOutCombos[dataset.FunctionComboKey(train[i].Program)] {
				t.Fatalf("strategy %s leaked a held-out combination", s)
			}
		}
	}
	// Baseline must be smaller than paraphrase-only (no expansion).
	base := d.TrainingExamples(StrategyBaseline, rand.New(rand.NewSource(1)))
	para := d.TrainingExamples(StrategyParaphraseOnly, rand.New(rand.NewSource(1)))
	if len(base) >= len(para) {
		t.Errorf("baseline (%d) should be smaller than paraphrase-only (%d)", len(base), len(para))
	}
}

// TestBuildDataDeterministicAcrossProcs: the data a parser trains and
// validates on — BuildData, then TrainingExamples seeded as Data.Train seeds
// it, plus the validation set — is the same sentences and programs at
// GOMAXPROCS 1 and 4, although synthesis runs one sampling goroutine per
// core.
func TestBuildDataDeterministicAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) []string {
		runtime.GOMAXPROCS(procs)
		d := buildUnitData(t)
		examples := append(d.TrainingExamples(StrategyGenie, rand.New(rand.NewSource(1))), d.Validation...)
		out := make([]string, len(examples))
		for i := range examples {
			out[i] = examples[i].Sentence() + "|" + examples[i].Program.String()
		}
		return out
	}
	one, four := build(1), build(4)
	if len(one) != len(four) {
		t.Fatalf("GOMAXPROCS changed the set: %d examples at 1, %d at 4", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("example %d differs:\n GOMAXPROCS 1: %s\n GOMAXPROCS 4: %s", i, one[i], four[i])
		}
	}
	t.Logf("%d examples, identical", len(one))
}

// TestPipelineStreamIsTheTrainingSet: the benchmark's adapter sends exactly
// the examples Data.Train would train a Genie-strategy parser on.
func TestPipelineStreamIsTheTrainingSet(t *testing.T) {
	ctx := context.Background()
	got := dataset.Collect(ctx, PipelineStream(ctx, thingpedia.Builtin(), nltemplate.DefaultOptions, Unit, 1, 0), 0)
	want := buildUnitData(t).TrainingExamples(StrategyGenie, rand.New(rand.NewSource(1)))
	if len(got) != len(want) {
		t.Fatalf("%d examples sent, %d in the training set", len(got), len(want))
	}
	for i := range want {
		if a, b := got[i].Sentence()+"|"+got[i].Program.String(), want[i].Sentence()+"|"+want[i].Program.String(); a != b {
			t.Fatalf("example %d: sent %s, training set %s", i, a, b)
		}
	}
}

func TestToPairsAblations(t *testing.T) {
	d := buildUnitData(t)
	rng := rand.New(rand.NewSource(3))
	examples := d.TrainingExamples(StrategySynthesizedOnly, rng)[:20]

	canon := ToPairs(examples, CanonicalTargets, d.Lib, rng)
	if len(canon) != 20 {
		t.Fatal("missing pairs")
	}
	hasAnnotation := false
	for _, p := range canon {
		for _, tok := range p.Tgt {
			if len(tok) > 6 && tok[:6] == "param:" && countByte(tok, ':') >= 2 {
				hasAnnotation = true
			}
		}
	}
	if !hasAnnotation {
		t.Error("canonical targets should carry type annotations")
	}

	plain := ToPairs(examples, TargetOptions{}, d.Lib, rng)
	for _, p := range plain {
		for _, tok := range p.Tgt {
			if len(tok) > 6 && tok[:6] == "param:" && countByte(tok, ':') >= 2 {
				t.Fatalf("type annotation leaked into -annotations targets: %s", tok)
			}
		}
	}

	pos := ToPairs(examples, TargetOptions{Positional: true}, d.Lib, rng)
	for _, p := range pos {
		for _, tok := range p.Tgt {
			if len(tok) > 6 && tok[:6] == "param:" {
				// VarRefs still use param: tokens; keyword assignments do not.
				continue
			}
		}
	}

	// Shuffled targets must still parse to the same canonical program.
	shuf := ToPairs(examples, TargetOptions{TypeAnnotations: true, ShuffleParams: true}, d.Lib, rng)
	for i, p := range shuf {
		prog, err := thingtalk.ParseTokens(p.Tgt, thingtalk.ParseOptions{})
		if err != nil {
			t.Fatalf("shuffled target unparseable: %v", err)
		}
		if !thingtalk.SameProgram(prog, examples[i].Program, d.Lib) {
			t.Fatalf("shuffling changed semantics")
		}
	}
}

func countByte(s string, c byte) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			n++
		}
	}
	return n
}

func TestEndToEndTrainingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	d := buildUnitData(t)
	p := d.Train(TrainOptions{Strategy: StrategyGenie, Topt: CanonicalTargets, Model: Unit.Model, Seed: 1})
	// Integrity check: the parser must at least have fit its own training
	// distribution (absolute accuracy on held-out data is a property of the
	// scale and is measured by the experiment harness).
	rng := randSeed(77)
	trainSample := d.TrainingExamples(StrategyGenie, rng)
	if len(trainSample) > 50 {
		trainSample = trainSample[:50]
	}
	trainRep := d.Evaluate(p, trainSample)
	parRep := d.Evaluate(p, d.ParaTest)
	t.Logf("unit-scale genie: train-subset %.1f%% prog / %.1f%% fn; paraphrase test %.1f%% prog / %.1f%% fn / %.1f%% syntax",
		trainRep.ProgramAccuracy(), trainRep.FunctionAccuracy(),
		parRep.ProgramAccuracy(), parRep.FunctionAccuracy(), parRep.SyntaxRate())
	if trainRep.FunctionAccuracy() < 30 {
		t.Errorf("unit-scale training too weak on its own data: %.1f%% function accuracy", trainRep.FunctionAccuracy())
	}
}

func randSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
