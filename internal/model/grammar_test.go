package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/grammar"
	"repro/internal/nltemplate"
	"repro/internal/params"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// sharedGrammarFixture builds (once) the realistic decode environment the
// grammar-integration tests run in: the builtin skill library, its grammar
// spec, an instantiated program corpus, and the target vocabulary a trained
// parser would carry.
var sharedGrammarFixture struct {
	once  sync.Once
	err   error
	lib   *thingpedia.Library
	spec  *grammar.Spec
	progs [][]string
	vocab []string
}

func grammarFixture(t testing.TB) (*thingpedia.Library, *grammar.Spec, [][]string, []string) {
	f := &sharedGrammarFixture
	f.once.Do(func() {
		lib := thingpedia.Builtin()
		g := nltemplate.StandardGrammar(lib, nltemplate.DefaultOptions)
		raw := synthesis.Synthesize(g, synthesis.Config{
			TargetPerRule: 20, MaxDepth: 4, Seed: 7, Schemas: lib,
		})
		sampler := params.NewSampler()
		rng := rand.New(rand.NewSource(11))
		seen := map[string]bool{}
		var progs [][]string
		for i := range raw {
			e := dataset.Example{Words: raw[i].Words, Program: raw[i].Program}
			inst, err := augment.Instantiate(&e, sampler, rng)
			if err != nil {
				continue
			}
			toks := inst.Program.Tokens()
			key := strings.Join(toks, " ")
			if seen[key] {
				continue
			}
			seen[key] = true
			progs = append(progs, toks)
		}
		if len(progs) < 100 {
			f.err = fmt.Errorf("corpus too small: %d programs", len(progs))
			return
		}
		vocabSet := map[string]bool{}
		for _, p := range progs {
			for _, tok := range p {
				vocabSet[tok] = true
			}
		}
		var toks []string
		for tok := range vocabSet {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		f.lib = lib
		f.spec = grammar.NewSpec(lib.Functions())
		f.progs = progs
		f.vocab = append([]string{UnkToken, BosToken, EosToken}, toks...)
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.lib, f.spec, f.progs, f.vocab
}

// utteranceWords is the input-side word pool for random utterances (some of
// the words are deliberately absent from both vocabularies so the pointer
// path stays exercised).
var utteranceWords = []string{
	"show", "me", "the", "latest", "news", "when", "it", "rains", "post",
	"alpha", "bravo", "zulu", "42", "tweet", "picture", "every", "morning",
}

// newGrammarParser builds an untrained, randomly-initialized parser whose
// target vocabulary covers the builtin library, with the grammar automaton
// compiled and active. Untrained weights are the adversarial case for
// constrained decoding: the network's preferences are noise, so only the
// mask keeps the output well-formed.
func newGrammarParser(t testing.TB, seed int64) *Parser {
	_, spec, _, vocab := grammarFixture(t)
	cfg := Config{
		EmbedDim: 12, HiddenDim: 12, PointerGen: true,
		MaxDecodeLen: 32, Seed: seed,
	}
	var srcSeqs [][]string
	for _, w := range utteranceWords {
		srcSeqs = append(srcSeqs, []string{w})
	}
	p := newParser(cfg, BuildVocab(srcSeqs, 1), newVocabFromTokens(vocab), rand.New(rand.NewSource(cfg.Seed)))
	if err := p.SetGrammar(spec); err != nil {
		t.Fatalf("SetGrammar: %v", err)
	}
	if !p.GrammarActive() {
		t.Fatal("grammar not active after SetGrammar")
	}
	return p
}

func randomUtterance(rng *rand.Rand) []string {
	n := 3 + rng.Intn(5)
	words := make([]string, n)
	for i := range words {
		words[i] = utteranceWords[rng.Intn(len(utteranceWords))]
	}
	return words
}

// TestMaskedDecodeAlwaysValid is the soundness property of the integrated
// decoder: across 1000 random (weights, utterance) combinations — 20
// randomly-initialized parsers ("random snapshots") × 50 random utterances —
// every greedy masked decode must parse and typecheck. Beam and batched
// paths are sampled on a subset (they share the same mask plumbing).
func TestMaskedDecodeAlwaysValid(t *testing.T) {
	lib, _, _, _ := grammarFixture(t)
	schemas := lib.Schemas()
	check := func(ctx string, out []string) {
		t.Helper()
		prog, err := thingtalk.ParseTokens(out, thingtalk.ParseOptions{})
		if err != nil {
			t.Fatalf("%s: masked decode emitted a non-parsing program: %v\n%s",
				ctx, err, strings.Join(out, " "))
		}
		if err := thingtalk.Typecheck(prog, schemas); err != nil {
			t.Fatalf("%s: masked decode emitted an ill-typed program: %v\n%s",
				ctx, err, strings.Join(out, " "))
		}
	}
	decodes := 0
	for seed := int64(0); seed < 20; seed++ {
		p := newGrammarParser(t, 1000+seed)
		rng := rand.New(rand.NewSource(seed))
		var batch [][]string
		for i := 0; i < 50; i++ {
			words := randomUtterance(rng)
			check(fmt.Sprintf("seed %d greedy %d", seed, i), p.Parse(words))
			decodes++
			batch = append(batch, words)
		}
		// A sample of the same utterances through the batched greedy path
		// and the beam paths: identical mask guarantees apply.
		for i, out := range p.ParseBatch(batch[:6]) {
			check(fmt.Sprintf("seed %d batch row %d", seed, i), out)
		}
		check(fmt.Sprintf("seed %d beam", seed), p.ParseBeam(batch[0], 3))
		for i, d := range p.Decode(toRows(batch[:3], nil), Policy{Beam: 2}) {
			check(fmt.Sprintf("seed %d beam batch row %d", seed, i), d.Tokens)
		}
	}
	if decodes != 1000 {
		t.Fatalf("expected 1000 greedy decodes, ran %d", decodes)
	}
}

// TestMaskedUnmaskedParityScorer pins the argmax parity rule between the two
// modes of the candidate scan: whenever the unmasked argmax is itself legal,
// the masked scan must pick the same token with the same mixed probability.
// States are real corpus program prefixes; distributions are random but
// peaked at the true next token so the legal-hit case dominates.
func TestMaskedUnmaskedParityScorer(t *testing.T) {
	_, _, progs, _ := grammarFixture(t)
	p := newGrammarParser(t, 42)
	words := []string{"now", "alpha", "42", "zulu"}
	rng := rand.New(rand.NewSource(5))
	V := p.tgt.Size()
	pv := make([]float64, V)
	alpha := make([]float64, len(words))
	var sc scoreScratch
	var ls grammar.LegalSet
	maxLen := p.cfg.maxDecodeLen()

	legalHits := 0
	for pi, prog := range progs {
		if pi >= 200 {
			break
		}
		gs := p.grammarStart()
		for ti := range prog {
			if gs == nil || ti >= maxLen {
				break
			}
			// Random distribution, peaked at the true next token when it is
			// in vocabulary (it usually is).
			var sum float64
			for i := range pv {
				pv[i] = rng.Float64()
				sum += pv[i]
			}
			if id, ok := p.tgt.lookup(prog[ti]); ok && rng.Intn(4) > 0 {
				pv[id] += sum
				sum *= 2
			}
			for i := range pv {
				pv[i] /= sum
			}
			var asum float64
			for i := range alpha {
				alpha[i] = rng.Float64()
				asum += alpha[i]
			}
			for i := range alpha {
				alpha[i] /= asum
			}
			gate := 0.5 + rng.Float64()/2
			rem := maskedBudget(maxLen, ti)

			m := mixRow{pv: pv, alpha: alpha, gate: gate, words: words}
			un, _ := p.scan(&sc, nil, m, 1)
			unTok, unP := un[0].tok, un[0].p
			p.auto.Legal(gs, rem, &ls)
			legal := false
			if id, ok := p.tgt.lookup(unTok); ok {
				legal = ls.Has(int32(id)) || (id == EosID && ls.EOS)
			} else {
				legal = ls.WordLegal(unTok)
			}
			if legal {
				legalHits++
				top, ok := p.scan(&sc, &ls, m, 1)
				if !ok {
					t.Fatalf("prog %d step %d: masked scan empty while %q legal", pi, ti, unTok)
				}
				if mTok, mP := top[0].tok, top[0].p; mTok != unTok || mP != unP {
					t.Fatalf("prog %d step %d: parity broken: unmasked (%q, %v) masked (%q, %v)",
						pi, ti, unTok, unP, mTok, mP)
				}
			}
			gs = p.grammarStep(gs, prog[ti])
		}
	}
	if legalHits < 200 {
		t.Fatalf("parity test vacuous: only %d legal-argmax cases", legalHits)
	}
}

// TestMaskedUnmaskedParityDecode is the end-to-end form: when an unmasked
// greedy decode happens to be fully legal (every emitted token in the mask,
// EOS accepted), the masked decode of the same utterance must be identical.
func TestMaskedUnmaskedParityDecode(t *testing.T) {
	p := newGrammarParser(t, 99)
	auto := p.auto
	rng := rand.New(rand.NewSource(17))
	maxLen := p.cfg.maxDecodeLen()
	var ls grammar.LegalSet
	compared := 0
	for i := 0; i < 200; i++ {
		words := randomUtterance(rng)
		p.auto = nil
		un := p.Parse(words)
		p.auto = auto

		// Replay the unmasked output against the mask, step for step as the
		// masked decoder would see it.
		ok := true
		gs := auto.Start()
		for ti, tok := range un {
			auto.Legal(gs, maskedBudget(maxLen, ti), &ls)
			legal := false
			if id, has := p.tgt.lookup(tok); has {
				legal = ls.Has(int32(id))
			} else {
				legal = ls.WordLegal(tok)
			}
			if !legal {
				ok = false
				break
			}
			id := -1
			if has := p.tgt.Has(tok); has {
				id = p.tgt.ID(tok)
			}
			next, err := auto.Step(gs, id, tok)
			if err != nil {
				ok = false
				break
			}
			gs = next
		}
		if ok {
			auto.Legal(gs, maskedBudget(maxLen, len(un)), &ls)
			ok = ls.EOS
		}
		if !ok {
			continue
		}
		compared++
		masked := p.Parse(words)
		if strings.Join(masked, " ") != strings.Join(un, " ") {
			t.Fatalf("utterance %v: unmasked output fully legal but masked differs:\nunmasked: %s\nmasked:   %s",
				words, strings.Join(un, " "), strings.Join(masked, " "))
		}
	}
	t.Logf("decode-level parity comparisons: %d/200", compared)
}

// TestSnapshotV3GrammarRoundTrip locks the snapshot's grammar block: the
// calibration threshold, grammar spec, and automaton checksum survive a
// save/load round trip; a tampered checksum is rejected; and the reloaded
// parser's masked decode is identical.
func TestSnapshotV3GrammarRoundTrip(t *testing.T) {
	_, spec, _, _ := grammarFixture(t)
	p := newGrammarParser(t, 3)
	p.SetMeta(SnapshotMeta{LibraryChecksum: "lib123", Generation: 4, Note: "v3 test"})
	p.SetCalibration(Calibration{Fitted: true, Threshold: -0.37})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.Calibration() != p.Calibration() {
		t.Errorf("calibration round trip: %+v != %+v", q.Calibration(), p.Calibration())
	}
	if q.GrammarChecksum() != spec.Checksum() || q.GrammarChecksum() == "" {
		t.Errorf("grammar checksum round trip: %q != %q", q.GrammarChecksum(), spec.Checksum())
	}
	if !q.GrammarActive() {
		t.Error("grammar not active after reload")
	}
	if q.Meta() != p.Meta() {
		t.Errorf("meta round trip: %+v != %+v", q.Meta(), p.Meta())
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		words := randomUtterance(rng)
		if a, b := strings.Join(p.Parse(words), " "), strings.Join(q.Parse(words), " "); a != b {
			t.Fatalf("masked decode differs after round trip: %q != %q", a, b)
		}
	}

	// A tampered checksum must be rejected (the stored hex digest appears
	// exactly once in the stream: flip its last character).
	sum := spec.Checksum()
	altered := sum[:len(sum)-1] + string('f'-sum[len(sum)-1]+'0')
	tampered := bytes.Replace(buf.Bytes(), []byte(sum), []byte(altered), 1)
	if !bytes.Equal(tampered, buf.Bytes()) {
		if _, err := Load(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("tampered checksum: err = %v, want checksum mismatch", err)
		}
	}
}

// TestParseAdaptive exercises the greedy-first escalation rule directly:
// with a threshold above the greedy score the beam runs, below it greedy
// wins, and without a fitted calibration it never escalates.
func TestParseAdaptive(t *testing.T) {
	p := newGrammarParser(t, 6)
	words := []string{"show", "me", "news"}
	_, greedyScore := p.ParseScored(words, 1)

	adaptive := func(width int) Decoded {
		return decodeOne(p, words, nil, Policy{Beam: width, Adaptive: true})
	}
	p.SetCalibration(Calibration{})
	if adaptive(4).Escalated {
		t.Error("escalated without a fitted calibration")
	}
	p.SetCalibration(Calibration{Fitted: true, Threshold: greedyScore - 1})
	got := adaptive(4)
	if got.Escalated {
		t.Error("escalated although greedy score was above threshold")
	}
	if got.Score != greedyScore {
		t.Errorf("adaptive greedy score %v != ParseScored %v", got.Score, greedyScore)
	}
	if strings.Join(got.Tokens, " ") != strings.Join(p.Parse(words), " ") {
		t.Error("non-escalated adaptive output differs from greedy")
	}
	p.SetCalibration(Calibration{Fitted: true, Threshold: greedyScore + 1})
	got = adaptive(4)
	if !got.Escalated {
		t.Error("did not escalate although greedy score was below threshold")
	}
	wantToks, wantScore := p.ParseScored(words, 4)
	if strings.Join(got.Tokens, " ") != strings.Join(wantToks, " ") || got.Score != wantScore {
		t.Errorf("escalated adaptive output differs from beam: (%v, %v) != (%v, %v)",
			got.Tokens, got.Score, wantToks, wantScore)
	}
	if adaptive(1).Escalated {
		t.Error("width 1 must never escalate")
	}

	// The windowed form of the same rule: only the rows below the threshold
	// escalate, and they decode exactly as a lone row's beam does.
	rng := rand.New(rand.NewSource(29))
	var window []Row
	var scores []float64
	for i := 0; i < 6; i++ {
		window = append(window, Row{Words: randomUtterance(rng)})
		_, s := p.ParseScored(window[i].Words, 1)
		scores = append(scores, s)
	}
	sort.Float64s(scores)
	p.SetCalibration(Calibration{Fitted: true, Threshold: scores[3]})
	escalated := 0
	for i, got := range p.Decode(window, Policy{Beam: 4, Adaptive: true}) {
		want := adaptive4(p, window[i].Words)
		if strings.Join(got.Tokens, " ") != strings.Join(want.Tokens, " ") || got.Score != want.Score || got.Escalated != want.Escalated {
			t.Errorf("window row %d: (%v, %v, %v) != per-request (%v, %v, %v)", i,
				got.Tokens, got.Score, got.Escalated, want.Tokens, want.Score, want.Escalated)
		}
		if got.Escalated {
			escalated++
		}
	}
	if escalated != 3 {
		t.Errorf("%d of 6 rows escalated, want the 3 below the median", escalated)
	}
}

func adaptive4(p *Parser, words []string) Decoded {
	return decodeOne(p, words, nil, Policy{Beam: 4, Adaptive: true})
}

// TestParseBatchScoredMatchesSequential: the batched greedy scores are the
// sequential ParseScored scores, row for row.
func TestParseBatchScoredMatchesSequential(t *testing.T) {
	p := newGrammarParser(t, 7)
	rng := rand.New(rand.NewSource(13))
	var batch [][]string
	for i := 0; i < 12; i++ {
		batch = append(batch, randomUtterance(rng))
	}
	batch = append(batch, nil) // empty row: nil output, -Inf score
	for i, got := range p.Decode(toRows(batch, nil), Policy{}) {
		wantToks, wantScore := p.ParseScored(batch[i], 1)
		if strings.Join(got.Tokens, " ") != strings.Join(wantToks, " ") {
			t.Errorf("row %d tokens differ: %v != %v", i, got.Tokens, wantToks)
		}
		if got.Score != wantScore {
			t.Errorf("row %d score %v != %v", i, got.Score, wantScore)
		}
	}
}

// BenchmarkMaskedDecode / BenchmarkUnmaskedDecode / BenchmarkBeamDecode
// feed the CI bench-masked-decode artifact: the per-decode cost of mask
// maintenance on top of the candidate scan (same parser, same utterance,
// grammar on vs off), greedy and at beam width 4.
func BenchmarkMaskedDecode(b *testing.B) {
	benchDecode(b, true, 1)
}

func BenchmarkUnmaskedDecode(b *testing.B) {
	benchDecode(b, false, 1)
}

func BenchmarkBeamDecode(b *testing.B) {
	for _, masked := range []bool{true, false} {
		name := "unmasked"
		if masked {
			name = "masked"
		}
		b.Run(name, func(b *testing.B) { benchDecode(b, masked, 4) })
	}
}

func benchDecode(b *testing.B, masked bool, width int) {
	p := newGrammarParser(b, 21)
	if !masked {
		p.auto = nil
	}
	words := []string{"show", "me", "the", "latest", "news"}
	var toks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks += len(p.ParseBeam(words, width))
	}
	b.ReportMetric(float64(toks)/float64(b.N), "tokens/op")
}
