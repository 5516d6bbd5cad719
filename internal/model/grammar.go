package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grammar"
)

// This file wires the grammar automaton (internal/grammar) into the decoder:
// when a parser carries a grammar spec, every decode path — greedy, beam, and
// the lockstep batched forms — restricts the fused pointer-mix argmax to the
// tokens legal in the current parse state, so the decoder cannot emit a
// malformed or ill-typed program. It also holds the confidence calibration
// used by adaptive serving: a threshold over length-normalized hypothesis
// scores fitted on held-out data (eval.FitCalibration), below which serving
// escalates from greedy to beam decode.

// Calibration is the fitted confidence threshold carried by snapshots.
// Scores are length-normalized log-probabilities as returned by
// ParseScored; Fitted distinguishes a real fit from the zero value.
type Calibration struct {
	Fitted    bool
	Threshold float64
}

// SetGrammar compiles spec against the parser's target vocabulary and caches
// the automaton for every subsequent decode. A nil spec clears masking.
// Compilation fails when the vocabulary cannot express any complete program
// (the automaton would dead-end immediately); the parser then keeps decoding
// unmasked.
func (p *Parser) SetGrammar(spec *grammar.Spec) error {
	if spec == nil {
		p.gspec, p.auto = nil, nil
		return nil
	}
	auto, err := grammar.Compile(spec, p.tgt.Tokens())
	if err != nil {
		p.gspec, p.auto = spec, nil
		return fmt.Errorf("model: compiling grammar: %w", err)
	}
	p.gspec, p.auto = spec, auto
	return nil
}

// Grammar returns the grammar spec the parser decodes under (nil when
// unmasked).
func (p *Parser) Grammar() *grammar.Spec { return p.gspec }

// GrammarActive reports whether masked decoding is in effect (a spec is set
// and compiled against this vocabulary).
func (p *Parser) GrammarActive() bool { return p.auto != nil }

// GrammarChecksum returns the checksum of the grammar spec the parser
// carries, or "" when it has none.
func (p *Parser) GrammarChecksum() string {
	if p.gspec == nil {
		return ""
	}
	return p.gspec.Checksum()
}

// SetCalibration stamps the confidence threshold the adaptive decode policy
// escalates against (Decode) and snapshots persist.
func (p *Parser) SetCalibration(c Calibration) { p.calib = c }

// Calibration returns the parser's confidence calibration.
func (p *Parser) Calibration() Calibration { return p.calib }

// grammarStart returns a fresh decode-state for one hypothesis, or nil when
// the parser decodes unmasked.
func (p *Parser) grammarStart() *grammar.State {
	if p.auto == nil {
		return nil
	}
	return p.auto.Start()
}

// grammarStep advances a hypothesis's grammar state over an emitted token.
// A nil return means the automaton rejected the token (only possible after
// an unmasked fallback step); the caller decodes the rest unmasked.
func (p *Parser) grammarStep(gs *grammar.State, tok string) *grammar.State {
	if gs == nil {
		return nil
	}
	id := -1
	if p.tgt.Has(tok) {
		id = p.tgt.ID(tok)
	}
	next, err := p.auto.Step(gs, id, tok)
	if err != nil {
		return nil
	}
	return next
}

// legalMemoEnabled gates the per-context Legal memo. It exists so the
// masked-decode benchmark can report the unmemoized walker alongside the
// memoized one; production paths never turn it off.
var legalMemoEnabled = true

// legal computes the legal-token mask for gs at budget rem, consulting the
// decode context's LegalCache when memoization is on.
func (p *Parser) legal(gs *grammar.State, rem int, ls *grammar.LegalSet, lc *grammar.LegalCache) {
	if !legalMemoEnabled {
		p.auto.Legal(gs, rem, ls)
		return
	}
	p.auto.LegalCached(gs, rem, ls, lc)
}

// maskedBest is bestTokenScored restricted to the tokens legal in gs with
// rem emission slots left (EOS excluded). The scan order — EOS, then legal
// vocabulary ids ascending, then out-of-vocabulary copy slots in first-
// occurrence order, strict greater-than — is the unmasked scan's order
// filtered to the mask, so whenever the unmasked argmax is itself legal the
// two paths pick the same token. ok is false when the mask admits nothing
// (the caller falls back to unmasked decoding).
func (p *Parser) maskedBest(ms *mixScorer, ls *grammar.LegalSet, lc *grammar.LegalCache, gs *grammar.State, rem int, pv, alpha []float64, gate float64, words []string) (string, float64, bool) {
	p.legal(gs, rem, ls, lc)
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	ms.prepare(p.tgt, words, alpha)
	defer ms.release()
	mix := func(id int32) float64 {
		prob := g * pv[id]
		if s := ms.mark[id]; s != 0 {
			if m := ms.slots[s-1].mass; m > 0 {
				prob += (1 - g) * m
			}
		}
		return prob
	}
	any := false
	bestTok := EosToken
	bestP := math.Inf(-1)
	if ls.EOS {
		any = true
		bestP = mix(EosID)
	}
	for _, id := range ls.IDs {
		any = true
		if prob := mix(id); prob > bestP {
			bestP = prob
			bestTok = p.tgt.Token(int(id))
		}
	}
	if p.cfg.PointerGen {
		for i := range ms.slots {
			s := &ms.slots[i]
			if s.id >= 0 || !ls.WordLegal(s.word) {
				continue
			}
			any = true
			if prob := (1 - g) * s.mass; prob > bestP {
				bestP = prob
				bestTok = s.word
			}
		}
	}
	return bestTok, bestP, any
}

// maskedTop is topTokens restricted to the legal set: the same fused scan and
// stable descending sort over the masked candidates. ok is false when the
// mask admits nothing.
func (p *Parser) maskedTop(ms *mixScorer, ls *grammar.LegalSet, lc *grammar.LegalCache, gs *grammar.State, rem int, scored *[]scoredToken, pv, alpha []float64, gate float64, words []string, k int) ([]scoredToken, bool) {
	p.legal(gs, rem, ls, lc)
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	ms.prepare(p.tgt, words, alpha)
	defer ms.release()
	all := (*scored)[:0]
	mix := func(id int32) float64 {
		prob := g * pv[id]
		if s := ms.mark[id]; s != 0 {
			if m := ms.slots[s-1].mass; m > 0 {
				prob += (1 - g) * m
			}
		}
		return prob
	}
	if ls.EOS {
		all = append(all, scoredToken{tok: EosToken, p: mix(EosID)})
	}
	for _, id := range ls.IDs {
		all = append(all, scoredToken{tok: p.tgt.Token(int(id)), p: mix(id)})
	}
	if p.cfg.PointerGen {
		for i := range ms.slots {
			s := &ms.slots[i]
			if s.id >= 0 || !ls.WordLegal(s.word) {
				continue
			}
			all = append(all, scoredToken{tok: s.word, p: (1 - g) * s.mass})
		}
	}
	*scored = all
	if len(all) == 0 {
		return nil, false
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p > all[j].p })
	if len(all) > k {
		all = all[:k]
	}
	return all, true
}

// maskedBudget is the program-token budget passed to Legal at decode step t:
// of the maxLen-t emissions left, one is reserved for </s>.
func maskedBudget(maxLen, t int) int { return maxLen - t - 1 }
