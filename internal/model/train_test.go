package model

import (
	"math"
	"testing"
)

// benchPair mirrors the root BenchmarkTrainingStep example.
func benchPair() Pair {
	return Pair{
		Src: []string{"post", "hello", "world", "on", "twitter"},
		Tgt: []string{"now", "=>", "@com.twitter.post", "param:status", "=", `"`, "hello", "world", `"`},
	}
}

// TestTrainerStepSteadyStateAllocs pins the arena property at the model
// level: once the arena, tape and scratch buffers are warm, a full training
// step (encode, decode, pointer loss, backward, Adam) stays within a small
// fixed allocation budget. The pre-arena substrate allocated two slices and
// a closure per op — thousands per step.
func TestTrainerStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	pair := benchPair()
	cfg := Config{EmbedDim: 32, HiddenDim: 48, LR: 1e-3, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 1}
	tr := NewTrainer([]Pair{pair}, nil, cfg)
	for i := 0; i < 3; i++ { // warm arena, tape, scratch, Adam moments
		tr.Step(&pair)
	}
	const budget = 8
	if n := testing.AllocsPerRun(50, func() { tr.Step(&pair) }); n > budget {
		t.Errorf("steady-state training step allocates %v, budget %d", n, budget)
	}
}

// TestTrainerStepDropoutStaysInBudget repeats the check with dropout active
// (masks must come from the arena, not per-step makes).
func TestTrainerStepDropoutStaysInBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	pair := benchPair()
	cfg := Config{EmbedDim: 32, HiddenDim: 48, LR: 1e-3, Dropout: 0.1, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 1}
	tr := NewTrainer([]Pair{pair}, nil, cfg)
	for i := 0; i < 3; i++ {
		tr.Step(&pair)
	}
	const budget = 8
	if n := testing.AllocsPerRun(50, func() { tr.Step(&pair) }); n > budget {
		t.Errorf("steady-state dropout step allocates %v, budget %d", n, budget)
	}
}

// TestTrainerStepLossDecreases sanity-checks that stepwise training on one
// example actually learns it.
func TestTrainerStepLossDecreases(t *testing.T) {
	pair := benchPair()
	cfg := Config{EmbedDim: 32, HiddenDim: 48, LR: 5e-3, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 16, MinVocabCount: 1, Seed: 1}
	tr := NewTrainer([]Pair{pair}, nil, cfg)
	first := tr.Step(&pair)
	var last float64
	for i := 0; i < 60; i++ {
		last = tr.Step(&pair)
	}
	if math.IsNaN(last) || last >= first {
		t.Errorf("stepwise training did not reduce loss: first %g, last %g", first, last)
	}
}

// TestTrainMatchesTrainerMechanics ensures Train (which steps through the
// Trainer's arena graph) produces a parser that fits the training pair.
func TestTrainMatchesTrainerMechanics(t *testing.T) {
	train, _ := toyPairs()
	p := Train(train, nil, nil, testConfig(7))
	got := p.Parse(train[0].Src)
	if len(got) == 0 {
		t.Fatal("empty parse after training")
	}
}

// TestDefaultConfigKeepsContextual: a Config that leaves the dimensions to
// DefaultConfig still builds the contextual parser it asks for.
func TestDefaultConfigKeepsContextual(t *testing.T) {
	train, _ := toyDialoguePairs()
	if p := NewTrainer(train, nil, Config{Contextual: true, Seed: 1}).Parser(); p.ctxCell == nil {
		t.Error("Config{Contextual: true} built a non-contextual parser")
	}
}
