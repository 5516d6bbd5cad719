package model

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// sharedToy trains one parser on the toy copy task, shared by the decode,
// concurrency and snapshot tests (training is the expensive part; decoding
// a shared parser is what those tests exercise).
var sharedToy struct {
	once sync.Once
	p    *Parser
}

func trainedToyParser() *Parser {
	sharedToy.once.Do(func() {
		train, _ := toyPairs()
		sharedToy.p = Train(train, nil, nil, testConfig(7))
	})
	return sharedToy.p
}

func joinTokens(toks []string) string { return strings.Join(toks, " ") }

// decodeOne is Decode over a single row.
func decodeOne(p *Parser, words, ctx []string, pol Policy) Decoded {
	return p.Decode([]Row{{Words: words, Context: ctx}}, pol)[0]
}

// toRows pairs sentences with contexts (nil contexts = single-turn rows).
func toRows(sentences, contexts [][]string) []Row {
	rows := make([]Row, len(sentences))
	for i, s := range sentences {
		rows[i].Words = s
		if contexts != nil {
			rows[i].Context = contexts[i]
		}
	}
	return rows
}

// TestConcurrentDecodeMatchesSequential is the regression test for the old
// Parser.scr decode race: one trained parser is decoded from many goroutines
// (greedy and beam) and every output must match the sequential decode
// token-for-token. Run under -race in CI.
func TestConcurrentDecodeMatchesSequential(t *testing.T) {
	p := trainedToyParser()
	train, val := toyPairs()
	var sentences [][]string
	for _, pr := range append(train, val...) {
		sentences = append(sentences, pr.Src)
	}

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

	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stagger the starting sentence so goroutines decode different
			// inputs at the same time.
			for rep := 0; rep < 3; rep++ {
				for k := range sentences {
					i := (k + w) % len(sentences)
					if got := joinTokens(p.Parse(sentences[i])); got != wantGreedy[i] {
						t.Errorf("worker %d: concurrent Parse(%v) = %q, sequential %q", w, sentences[i], got, wantGreedy[i])
						return
					}
					if got := joinTokens(p.ParseBeam(sentences[i], 3)); got != wantBeam[i] {
						t.Errorf("worker %d: concurrent ParseBeam(%v) = %q, sequential %q", w, sentences[i], got, wantBeam[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParseSteadyStateAllocs checks the pooled decode path allocates (near)
// nothing once warm — the answer and its token slice are the only per-call
// allocations — greedy and at beam width 3, where hypotheses fork without
// copying their prefixes: a short output and one that runs to MaxDecodeLen
// (an untrained parser decoding unmasked) meet the same bound.
func TestParseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p := trainedToyParser()
	src := []string{"tweet", "alpha", "now"}
	p.Parse(src) // warm the graph pool, arena and scratch buffers
	allocs := testing.AllocsPerRun(100, func() { p.Parse(src) })
	if allocs > 4 {
		t.Errorf("steady-state Parse allocates %.1f objects/op; want near-zero (result slice only)", allocs)
	}

	long := newGrammarParser(t, 21)
	long.auto = nil
	words := []string{"show", "me", "the", "latest", "news"}
	if n := len(long.ParseBeam(words, 3)); n != long.cfg.maxDecodeLen() {
		t.Fatalf("long case decodes %d tokens, want MaxDecodeLen %d", n, long.cfg.maxDecodeLen())
	}
	for _, c := range []struct {
		name  string
		p     *Parser
		words []string
	}{{"short", p, src}, {"MaxDecodeLen", long, words}} {
		c.p.ParseBeam(c.words, 3)
		allocs := testing.AllocsPerRun(100, func() { c.p.ParseBeam(c.words, 3) })
		if allocs > 4 {
			t.Errorf("steady-state ParseBeam width 3 (%s output) allocates %.1f objects/op; want at most 4 whatever the output length", c.name, allocs)
		}
	}
}

// TestBeamLengthNormalization is the regression test for the raw
// cumulative-log-probability ranking: a truncated one-token hypothesis with
// a high total (because it has fewer factors) used to beat the full program.
// Length normalization must pick the full program, which matches greedy.
func TestBeamLengthNormalization(t *testing.T) {
	p := trainedToyParser()
	train, _ := toyPairs()
	src := train[0].Src
	gold := p.Parse(src) // greedy decode of a fitted training example
	if len(gold) < 3 {
		t.Fatalf("greedy decode too short to exercise truncation: %v", gold)
	}

	// Truncated: 1 token + </s> = 2 factors totalling -0.5 (avg -0.25).
	// Full: len(gold)+1 factors totalling -1.2 (avg better than -0.25, but
	// the raw sum is lower simply because there are more factors).
	var dc decodeCtx
	truncated := historyHyp(&dc, gold[:1], -0.5, true)
	full := historyHyp(&dc, gold, -1.2, true)
	beam := []hyp{truncated, full}

	// The pre-fix ranking — raw cumulative log-probability — picks the
	// truncated program because every extra token lowers the sum.
	if truncated.logProb <= full.logProb {
		t.Fatal("test setup wrong: raw log-prob ranking should favor the truncated hypothesis")
	}

	// The fixed ranking normalizes by length and picks the full program.
	best := dc.finish(beam)
	if joinTokens(best.Tokens) != joinTokens(gold) {
		t.Errorf("length-normalized selection picked %v, want the full greedy program %v", best.Tokens, gold)
	}

	// End to end: the fixed beam must not fall below greedy on fitted
	// examples (truncation would make them differ).
	for _, pr := range train[:6] {
		greedy := joinTokens(p.Parse(pr.Src))
		for _, width := range []int{2, 4} {
			if got := joinTokens(p.ParseBeam(pr.Src, width)); len(got) < len(greedy) {
				t.Errorf("ParseBeam(%v, %d) = %q truncates below greedy %q", pr.Src, width, got, greedy)
			}
		}
	}
}

// historyHyp records toks in dc's token history and returns the hypothesis
// that ends with them.
func historyHyp(dc *decodeCtx, toks []string, logProb float64, done bool) hyp {
	h := hyp{logProb: logProb, last: -1, done: done}
	for _, tok := range toks {
		dc.hist = append(dc.hist, histNode{tok: tok, parent: h.last})
		h.last, h.n = len(dc.hist)-1, h.n+1
	}
	return h
}

func TestBeamScoreNormalization(t *testing.T) {
	it := historyHyp(&decodeCtx{}, []string{"a", "b", "c"}, -3.0, false)
	if got := it.score(); math.Abs(got-(-1.0)) > 1e-12 {
		t.Errorf("in-flight score = %v, want -1.0 (3 factors)", got)
	}
	it.done = true // </s> adds a factor
	if got := it.score(); math.Abs(got-(-0.75)) > 1e-12 {
		t.Errorf("done score = %v, want -0.75 (4 factors)", got)
	}
	empty := hyp{}
	if got := empty.score(); got != 0 {
		t.Errorf("empty hypothesis score = %v, want 0", got)
	}
}

// TestMaxDecodeLen covers the shared fallback helper: Parse and ParseBeam
// read the same bound, and an unset MaxDecodeLen falls back to
// DefaultConfig's rather than a drifting literal.
func TestMaxDecodeLen(t *testing.T) {
	if got := (Config{}).maxDecodeLen(); got != DefaultConfig.MaxDecodeLen {
		t.Errorf("zero config maxDecodeLen = %d, want DefaultConfig.MaxDecodeLen = %d", got, DefaultConfig.MaxDecodeLen)
	}
	if got := (Config{MaxDecodeLen: 7}).maxDecodeLen(); got != 7 {
		t.Errorf("maxDecodeLen = %d, want 7", got)
	}

	// Behavior: a tiny bound truncates both decode paths identically.
	q := *trainedToyParser()
	q.cfg.MaxDecodeLen = 2
	src := []string{"tweet", "alpha", "now"}
	if out := q.Parse(src); len(out) > 2 {
		t.Errorf("Parse ignored MaxDecodeLen=2: %v", out)
	}
	if out := q.ParseBeam(src, 3); len(out) > 2 {
		t.Errorf("ParseBeam ignored MaxDecodeLen=2: %v", out)
	}
}
