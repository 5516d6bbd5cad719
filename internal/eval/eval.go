// Package eval implements the paper's evaluation metrics: program accuracy
// (exact canonical match, accepting any of several valid annotations),
// function accuracy, and the Section 5.5 error ladder (syntactic/type
// correctness -> primitive-vs-compound -> correct skills -> correct
// functions -> full program -> parameter-value copy errors).
package eval

import (
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// Decoder is anything that maps a sentence to program tokens; *model.Parser
// satisfies it.
type Decoder interface {
	Parse(words []string) []string
}

// Report aggregates evaluation results over a dataset.
type Report struct {
	Total int
	// Correct counts exact canonical program matches (program accuracy).
	Correct int
	// Ladder components (Section 5.5).
	SyntaxOK        int // parses and typechecks
	PrimCompoundOK  int // primitive-vs-compound identified correctly
	SkillsOK        int // correct set of skills
	FunctionsOK     int // correct set of functions (function accuracy)
	ParamValueError int // right shape, wrong copied parameter value
}

// ProgramAccuracy returns the headline metric as a percentage.
func (r Report) ProgramAccuracy() float64 { return pct(r.Correct, r.Total) }

// FunctionAccuracy returns the function-set accuracy percentage.
func (r Report) FunctionAccuracy() float64 { return pct(r.FunctionsOK, r.Total) }

// SyntaxRate returns the share of outputs that are syntactically correct and
// type-correct.
func (r Report) SyntaxRate() float64 { return pct(r.SyntaxOK, r.Total) }

// PrimCompoundRate returns the share with correct primitive-vs-compound
// identification.
func (r Report) PrimCompoundRate() float64 { return pct(r.PrimCompoundOK, r.Total) }

// SkillRate returns the share with the correct set of skills.
func (r Report) SkillRate() float64 { return pct(r.SkillsOK, r.Total) }

// ParamValueErrorRate returns the share of outputs whose only mistake is a
// wrongly copied parameter value.
func (r Report) ParamValueErrorRate() float64 { return pct(r.ParamValueError, r.Total) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Evaluate decodes every example and scores it.
func Evaluate(dec Decoder, examples []dataset.Example, schemas thingtalk.SchemaSource) Report {
	var r Report
	for i := range examples {
		r.score(dec.Parse(examples[i].Words), &examples[i], schemas)
	}
	return r
}

// BatchDecoder decodes a window of sentences in one batched call;
// *model.Parser implements it (one batched forward per decode step).
type BatchDecoder interface {
	ParseBatch(sentences [][]string) [][]string
}

// EvaluateBatched is Evaluate with decoding done in windows of batch
// sentences through the decoder's lockstep batched path (0 = 16), so a
// single evaluation thread still gets matmul width B. Predictions are scored
// in example order; the Report is identical to Evaluate's.
func EvaluateBatched(dec BatchDecoder, examples []dataset.Example, schemas thingtalk.SchemaSource, batch int) Report {
	if batch <= 0 {
		batch = 16
	}
	preds := make([][]string, 0, len(examples))
	window := make([][]string, 0, batch)
	for start := 0; start < len(examples); start += batch {
		end := min(start+batch, len(examples))
		window = window[:0]
		for i := start; i < end; i++ {
			window = append(window, examples[i].Words)
		}
		preds = append(preds, dec.ParseBatch(window)...)
	}
	var r Report
	for i := range examples {
		r.score(preds[i], &examples[i], schemas)
	}
	return r
}

// score grades one prediction into the report.
func (r *Report) score(toks []string, e *dataset.Example, schemas thingtalk.SchemaSource) {
	r.Total++
	pred, err := thingtalk.ParseTokens(toks, thingtalk.ParseOptions{Schemas: schemas})
	if err != nil {
		return
	}
	if err := thingtalk.Typecheck(pred, schemas); err != nil {
		return
	}
	r.SyntaxOK++
	pred = thingtalk.Canonicalize(pred, schemas)
	gold := thingtalk.Canonicalize(e.Program, schemas)

	if pred.IsCompound() == gold.IsCompound() {
		r.PrimCompoundOK++
	}
	if sameStringSet(pred.Skills(), gold.Skills()) {
		r.SkillsOK++
	}
	fnOK := sameStringSet(pred.Functions(), gold.Functions())
	if fnOK {
		r.FunctionsOK++
	}

	if matchesAny(pred, e, schemas) {
		r.Correct++
		return
	}
	// Wrong result: is it only a parameter-value copy error?
	if fnOK && shapeKey(pred, schemas) == shapeKey(gold, schemas) {
		r.ParamValueError++
	}
}

// matchesAny compares the prediction against the gold program and all
// alternative annotations.
func matchesAny(pred *thingtalk.Program, e *dataset.Example, schemas thingtalk.SchemaSource) bool {
	if thingtalk.SameProgram(pred, e.Program, schemas) {
		return true
	}
	for _, alt := range e.Alt {
		if thingtalk.SameProgram(pred, alt, schemas) {
			return true
		}
	}
	return false
}

// shapeKey is the canonical program with every constant value erased; two
// programs with equal shapes differ only in parameter values.
func shapeKey(p *thingtalk.Program, schemas thingtalk.SchemaSource) string {
	c := thingtalk.Canonicalize(p, schemas)
	thingpedia.WalkProgramValues(c, func(v *thingtalk.Value, _ string) error {
		if v.Kind != thingtalk.VVarRef {
			*v = thingtalk.EnumValue("value")
		}
		return nil
	})
	return strings.Join(c.Encode(thingtalk.EncodeOptions{}), " ")
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// MeanRange summarizes per-seed accuracies as mean ± half-range, the paper's
// error-bar convention (Table 3, Fig. 8, Fig. 9).
func MeanRange(values []float64) (mean, halfRange float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi := values[0], values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return sum / float64(len(values)), (hi - lo) / 2
}
