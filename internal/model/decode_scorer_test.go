package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/grammar"
)

// The candidate scan, fused over the sentence's distinct words (mixScorer),
// must select exactly what the original O(V·S) scan selected — including
// tie-breaks, which the argmax resolves by first strict improvement in scan
// order. naiveBestToken and naiveTopTokens below are the pre-fusion
// implementations, kept verbatim as the reference.

func naiveCopyMass(alpha []float64, words []string, tok string) float64 {
	var m float64
	for i, w := range words {
		if w == tok {
			m += alpha[i]
		}
	}
	return m
}

func naiveCopyMassAt(alpha []float64, words []string, tok string, from int) float64 {
	var m float64
	for i := from; i < len(words); i++ {
		if words[i] == tok {
			m += alpha[i]
		}
	}
	return m
}

func naiveSeenEarlier(words []string, i int) bool {
	for j := 0; j < i; j++ {
		if words[j] == words[i] {
			return true
		}
	}
	return false
}

func naiveBestToken(p *Parser, pv, alpha []float64, gate float64, words []string) (string, float64) {
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	bestTok := EosToken
	bestP := math.Inf(-1)
	for id := 2; id < p.tgt.Size(); id++ {
		prob := g * pv[id]
		if cm := naiveCopyMass(alpha, words, p.tgt.Token(id)); cm > 0 {
			prob += (1 - g) * cm
		}
		if prob > bestP {
			bestP = prob
			bestTok = p.tgt.Token(id)
		}
	}
	if !p.cfg.PointerGen {
		return bestTok, bestP
	}
	for i, w := range words {
		if p.tgt.Has(w) || naiveSeenEarlier(words, i) {
			continue
		}
		prob := (1 - g) * naiveCopyMassAt(alpha, words, w, i)
		if prob > bestP {
			bestP = prob
			bestTok = w
		}
	}
	return bestTok, bestP
}

func naiveTopTokens(p *Parser, pv, alpha []float64, gate float64, words []string, k int) []scoredToken {
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	var all []scoredToken
	for id := 2; id < p.tgt.Size(); id++ {
		tok := p.tgt.Token(id)
		prob := g * pv[id]
		if cm := naiveCopyMass(alpha, words, tok); cm > 0 {
			prob += (1 - g) * cm
		}
		all = append(all, scoredToken{tok: tok, p: prob})
	}
	if p.cfg.PointerGen {
		for i, w := range words {
			if p.tgt.Has(w) || naiveSeenEarlier(words, i) {
				continue
			}
			all = append(all, scoredToken{tok: w, p: (1 - g) * naiveCopyMassAt(alpha, words, w, i)})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p > all[j].p })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// scorerParser builds a bare Parser with just the fields the scorers touch.
func scorerParser(pointerGen bool) *Parser {
	vocab := BuildVocab([][]string{{
		"now", "=>", "notify", "@twitter.post", "param:text", "=", `"`,
		"alpha", "bravo", "charlie", "tweet", "send",
	}}, 1)
	return &Parser{cfg: Config{PointerGen: pointerGen}, tgt: vocab}
}

// randomScorerCase draws one (pv, alpha, gate, words) tuple; sentences mix
// in-vocabulary words, out-of-vocabulary words, and duplicates of both, and
// occasionally tie several pv entries to pin the tie-break behavior.
func randomScorerCase(p *Parser, rng *rand.Rand) (pv, alpha []float64, gate float64, words []string) {
	pool := []string{"alpha", "bravo", "charlie", "tweet", "zebra", "quux", "now", "zebra", "alpha", "42"}
	n := 1 + rng.Intn(len(pool))
	words = make([]string, n)
	for i := range words {
		words[i] = pool[rng.Intn(len(pool))]
	}
	pv = make([]float64, p.tgt.Size())
	sum := 0.0
	for i := range pv {
		pv[i] = rng.Float64()
		sum += pv[i]
	}
	for i := range pv {
		pv[i] /= sum
	}
	if rng.Intn(3) == 0 { // force exact ties across a stretch of the vocabulary
		for i := 2; i < len(pv); i++ {
			pv[i] = 0.25
		}
	}
	alpha = make([]float64, n)
	asum := 0.0
	for i := range alpha {
		alpha[i] = rng.Float64()
		asum += alpha[i]
	}
	for i := range alpha {
		alpha[i] /= asum
	}
	if rng.Intn(4) == 0 { // zero attention mass: the >0 copy-add guard path
		for i := range alpha {
			alpha[i] = 0
		}
	}
	return pv, alpha, rng.Float64(), words
}

// randomLegalSet draws a mask over p's vocabulary: </s> on or off, an
// ascending subset of the other ids (often empty), and out-of-vocabulary
// copies legal everywhere, as numerals, or nowhere — sometimes admitting
// nothing at all.
func randomLegalSet(p *Parser, rng *rand.Rand) *grammar.LegalSet {
	ls := &grammar.LegalSet{EOS: rng.Intn(2) == 0}
	if rng.Intn(3) > 0 {
		for id := EosID + 1; id < p.tgt.Size(); id++ {
			if rng.Intn(3) == 0 {
				ls.IDs = append(ls.IDs, int32(id))
			}
		}
	}
	switch rng.Intn(4) {
	case 0:
		ls.AllTokens = true
	case 1:
		ls.NumberOK = true
	}
	return ls
}

// naiveMaskedTop is naiveTopTokens filtered to ls: the unmasked ranking
// keeps scan order among ties, and the masked scan order is the unmasked one
// filtered, so filtering the ranked list and truncating is the masked top-k.
// ok is false when ls admits no candidate.
func naiveMaskedTop(p *Parser, ls *grammar.LegalSet, pv, alpha []float64, gate float64, words []string, k int) (top []scoredToken, ok bool) {
	legalID := map[int]bool{}
	for _, id := range ls.IDs {
		legalID[int(id)] = true
	}
	for _, c := range naiveTopTokens(p, pv, alpha, gate, words, math.MaxInt) {
		id, inVocab := p.tgt.lookup(c.tok)
		switch {
		case c.tok == EosToken && !ls.EOS, inVocab && c.tok != EosToken && !legalID[id], !inVocab && !ls.WordLegal(c.tok):
			continue
		}
		top = append(top, c)
	}
	if len(top) > k {
		top = top[:k]
	}
	return top, len(top) > 0
}

// TestFusedScorerMatchesNaive drives the candidate scan, unmasked and
// masked, at k = 1..6 through randomized distributions (ties, duplicates,
// OOV words, zero attention) and random masks (EOS on and off, empty IDs,
// legal and illegal copy words, masks that admit nothing), and requires
// byte-identical selections and bit-identical probabilities against the
// pre-fusion reference scan: the argmax at k = 1, the stable sort otherwise,
// filtered to the mask when one is given and unmasked when it admits
// nothing.
func TestFusedScorerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc scoreScratch
	fallbacks := 0
	for _, pointerGen := range []bool{true, false} {
		p := scorerParser(pointerGen)
		for trial := 0; trial < 500; trial++ {
			pv, alpha, gate, words := randomScorerCase(p, rng)
			m := mixRow{pv: pv, alpha: alpha, gate: gate, words: words}
			check := func(mode string, got, want []scoredToken) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("pointerGen=%t trial %d %s: %d candidates, naive %d", pointerGen, trial, mode, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pointerGen=%t trial %d %s: [%d] scan = (%q, %v), naive = (%q, %v)\nwords=%v gate=%v",
							pointerGen, trial, mode, i, got[i].tok, got[i].p, want[i].tok, want[i].p, words, gate)
					}
				}
			}

			wantTok, wantP := naiveBestToken(p, pv, alpha, gate, words)
			got, _ := p.scan(&sc, nil, m, 1)
			check("argmax", got, []scoredToken{{wantTok, wantP}})

			k := 1 + rng.Intn(6)
			got, masked := p.scan(&sc, nil, m, k)
			if masked {
				t.Fatalf("pointerGen=%t trial %d: unmasked scan reports masked", pointerGen, trial)
			}
			check(fmt.Sprintf("unmasked k=%d", k), got, naiveTopTokens(p, pv, alpha, gate, words, k))

			ls := randomLegalSet(p, rng)
			want, wantMasked := naiveMaskedTop(p, ls, pv, alpha, gate, words, k)
			if !wantMasked {
				want = naiveTopTokens(p, pv, alpha, gate, words, k)
				fallbacks++
			}
			got, masked = p.scan(&sc, ls, m, k)
			if masked != wantMasked {
				t.Fatalf("pointerGen=%t trial %d: masked = %t, want %t", pointerGen, trial, masked, wantMasked)
			}
			check(fmt.Sprintf("masked k=%d", k), got, want)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no mask admitted nothing: the fallback went untested")
	}
}

// TestMixScorerMarkInvariant checks the pooled-context safety property: the
// sparse mark table is all-zero between prepare/release pairs, so a pooled
// decode context can serve parsers with different vocabularies.
func TestMixScorerMarkInvariant(t *testing.T) {
	p := scorerParser(true)
	var ms mixScorer
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		_, alpha, _, words := randomScorerCase(p, rng)
		ms.prepare(p.tgt, words, alpha)
		ms.release()
		for i, v := range ms.mark {
			if v != 0 {
				t.Fatalf("trial %d: mark[%d] = %d after release", trial, i, v)
			}
		}
	}
}

// BenchmarkPointerMixArgmax pits the fused O(V+S) scorer against the
// original O(V·S) scan at several sentence lengths; the gap widens with S,
// which is what makes long free-form parameter sentences affordable.
func BenchmarkPointerMixArgmax(b *testing.B) {
	p := scorerParser(true)
	rng := rand.New(rand.NewSource(1))
	for _, S := range []int{5, 15, 40} {
		pv, alpha, gate, _ := randomScorerCase(p, rng)
		words := make([]string, S)
		pool := []string{"alpha", "bravo", "zebra", "quux", "now", "tweet", "oov1", "oov2"}
		for i := range words {
			words[i] = pool[rng.Intn(len(pool))]
		}
		alpha = make([]float64, S)
		for i := range alpha {
			alpha[i] = 1 / float64(S)
		}
		b.Run(fmt.Sprintf("S=%d/naive", S), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveBestToken(p, pv, alpha, gate, words)
			}
		})
		b.Run(fmt.Sprintf("S=%d/fused", S), func(b *testing.B) {
			var sc scoreScratch
			m := mixRow{pv: pv, alpha: alpha, gate: gate, words: words}
			for i := 0; i < b.N; i++ {
				p.scan(&sc, nil, m, 1)
			}
		})
	}
}

// TestParseScoredConsistent checks ParseScored against the unscored decode
// paths: identical tokens at both widths, and a finite length-normalized
// log-probability (≤ 0 for a probability model).
func TestParseScoredConsistent(t *testing.T) {
	p := trainedToyParser()
	train, _ := toyPairs()
	for _, pair := range train[:6] {
		toks, score := p.ParseScored(pair.Src, 1)
		if joinTokens(toks) != joinTokens(p.Parse(pair.Src)) {
			t.Errorf("ParseScored width 1 of %v = %q, Parse = %q", pair.Src, joinTokens(toks), joinTokens(p.Parse(pair.Src)))
		}
		if math.IsNaN(score) || math.IsInf(score, 0) || score > 0 {
			t.Errorf("implausible greedy score %v for %v", score, pair.Src)
		}
		btoks, bscore := p.ParseScored(pair.Src, 3)
		if joinTokens(btoks) != joinTokens(p.ParseBeam(pair.Src, 3)) {
			t.Errorf("ParseScored width 3 of %v = %q, ParseBeam = %q", pair.Src, joinTokens(btoks), joinTokens(p.ParseBeam(pair.Src, 3)))
		}
		if math.IsNaN(bscore) || math.IsInf(bscore, 0) || bscore > 0 {
			t.Errorf("implausible beam score %v for %v", bscore, pair.Src)
		}
	}
	if toks, score := p.ParseScored(nil, 1); toks != nil || !math.IsInf(score, -1) {
		t.Errorf("empty input: got (%v, %v), want (nil, -Inf)", toks, score)
	}
}
