package model

import (
	"fmt"

	"repro/internal/grammar"
)

// This file wires the grammar automaton (internal/grammar) into the decoder:
// when a parser carries a grammar spec, every decode path — greedy, beam, and
// the lockstep batched forms — restricts the candidate scan to the tokens
// legal in the current parse state, so the decoder cannot emit a
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

// mask returns the tokens legal after gs with rem emission slots left
// (memoized per decode context), or nil when the hypothesis decodes
// unmasked.
func (sc *scoreScratch) mask(p *Parser, gs *grammar.State, rem int) *grammar.LegalSet {
	if gs == nil {
		return nil
	}
	p.auto.LegalCached(gs, rem, &sc.ls, &sc.lc)
	return &sc.ls
}

// maskedBudget is the program-token budget passed to Legal at decode step t:
// of the maxLen-t emissions left, one is reserved for </s>.
func maskedBudget(maxLen, t int) int { return maxLen - t - 1 }
