// Package augment implements Genie's parameter replacement and data
// augmentation (Section 3.3): typed slots left by the synthesizer are
// instantiated from the parameter-value datasets with per-group expansion
// factors, number-like arguments are normalized into indexed placeholders
// (NUMBER_0, DATE_1, ...) exactly as the rule-based argument identifier
// would produce, and paraphrases receive PPDB-style lexical augmentation.
//
// Expand and AugmentParaphrases materialize slices with a caller-supplied
// RNG; genie's Data.TrainingExamples runs them over the synthesized and
// paraphrased sets to build the training set.
//
//genielint:deterministic
package augment

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/params"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// Instantiate replaces every parameter slot of the example with a concrete
// value drawn from the sampler, producing a training-ready example. The
// input example is not modified.
func Instantiate(e *dataset.Example, sampler *params.Sampler, rng *rand.Rand) (dataset.Example, error) {
	out := e.Clone()
	// Collect slot metadata from the program.
	type slotInfo struct {
		t     thingtalk.Type
		param string
	}
	slots := map[int]slotInfo{}
	err := thingpedia.WalkProgramValues(out.Program, func(v *thingtalk.Value, param string) error {
		if v.Kind == thingtalk.VSlot {
			if v.SlotType == nil {
				return fmt.Errorf("augment: slot %d has no type", v.SlotID)
			}
			slots[v.SlotID] = slotInfo{t: v.SlotType, param: v.SlotParam}
		}
		return nil
	})
	if err != nil {
		return dataset.Example{}, err
	}

	// Draw a value per slot and assign placeholder indexes in sentence
	// order.
	drawn := map[int]params.Sample{}
	counters := map[string]int{}
	indexed := map[int]params.Sample{}
	var words []string
	for _, w := range out.Words {
		id, ok := slotID(w)
		if !ok {
			words = append(words, w)
			continue
		}
		info, ok := slots[id]
		if !ok {
			return dataset.Example{}, fmt.Errorf("augment: sentence slot %s not in program", w)
		}
		sample, ok := indexed[id]
		if !ok {
			raw, seen := drawn[id]
			if !seen {
				raw = sampler.Draw(rng, info.t, info.param)
				drawn[id] = raw
			}
			sample = indexPlaceholders(raw, counters)
			indexed[id] = sample
		}
		words = append(words, sample.Words...)
	}
	out.Words = words

	// Rewrite the program's slots.
	err = thingpedia.WalkProgramValues(out.Program, func(v *thingtalk.Value, param string) error {
		if v.Kind != thingtalk.VSlot {
			return nil
		}
		sample, ok := indexed[v.SlotID]
		if !ok {
			return fmt.Errorf("augment: program slot %d missing from sentence", v.SlotID)
		}
		*v = sample.Value
		return nil
	})
	if err != nil {
		return dataset.Example{}, err
	}
	return out, nil
}

// indexPlaceholders assigns NUMBER_k-style indexes to a drawn sample.
func indexPlaceholders(s params.Sample, counters map[string]int) params.Sample {
	out := params.Sample{Value: cloneVal(s.Value)}
	switch {
	case out.Value.Kind == thingtalk.VPlaceholder && !strings.Contains(out.Value.Name, "_"):
		prefix := out.Value.Name
		tok := fmt.Sprintf("%s_%d", prefix, counters[prefix])
		counters[prefix]++
		out.Value.Name = tok
		out.Words = []string{tok}
	case out.Value.Kind == thingtalk.VMeasure:
		tok := fmt.Sprintf("NUMBER_%d", counters["NUMBER"])
		counters["NUMBER"]++
		for i := range out.Value.Measures {
			if out.Value.Measures[i].Placeholder != "" {
				out.Value.Measures[i].Placeholder = tok
			}
		}
		out.Words = make([]string, len(s.Words))
		copy(out.Words, s.Words)
		for i, w := range out.Words {
			if w == "NUMBER_?" {
				out.Words[i] = tok
			}
		}
	default:
		out.Words = append([]string(nil), s.Words...)
	}
	return out
}

func cloneVal(v thingtalk.Value) thingtalk.Value {
	c := v
	c.Words = append([]string(nil), v.Words...)
	c.Measures = append([]thingtalk.MeasureTerm(nil), v.Measures...)
	return c
}

func slotID(w string) (int, bool) {
	if !strings.HasPrefix(w, "__slot_") {
		return 0, false
	}
	n := 0
	for _, c := range w[len("__slot_"):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ExpansionFactors are the per-group parameter-expansion multipliers of
// Section 5.2: "Paraphrases with string parameters are expanded 30 times,
// other paraphrases 10 times, synthesized primitive commands 4 times, and
// other synthesized sentences only once."
type ExpansionFactors struct {
	ParaphraseWithString int
	Paraphrase           int
	SynthesizedPrimitive int
	Synthesized          int
}

// PaperFactors mirrors Section 5.2 (scaled by the pipeline's Scale knob at
// run time).
var PaperFactors = ExpansionFactors{
	ParaphraseWithString: 30,
	Paraphrase:           10,
	SynthesizedPrimitive: 4,
	Synthesized:          1,
}

// Factor returns the multiplier for an example.
func (f ExpansionFactors) Factor(e *dataset.Example) int {
	hasString := exampleHasStringSlot(e)
	if e.Group == dataset.GroupParaphrase {
		if hasString {
			return f.ParaphraseWithString
		}
		return f.Paraphrase
	}
	if !e.Program.IsCompound() {
		return f.SynthesizedPrimitive
	}
	return f.Synthesized
}

func exampleHasStringSlot(e *dataset.Example) bool {
	has := false
	thingpedia.WalkProgramValues(e.Program, func(v *thingtalk.Value, _ string) error {
		if v.Kind == thingtalk.VSlot && v.SlotType != nil && thingtalk.IsStringLike(v.SlotType) {
			has = true
		}
		return nil
	})
	return has
}

// Expand instantiates each example factor-many times with independent
// parameter draws, deduplicating identical results.
func Expand(examples []dataset.Example, factors ExpansionFactors, sampler *params.Sampler, rng *rand.Rand) []dataset.Example {
	var out []dataset.Example
	seen := map[string]bool{}
	for i := range examples {
		e := &examples[i]
		n := factors.Factor(e)
		for k := 0; k < n; k++ {
			inst, err := Instantiate(e, sampler, rng)
			if err != nil {
				continue
			}
			key := inst.Sentence() + "|" + inst.Program.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, inst)
		}
	}
	return out
}

// NormalizeSentence performs the rule-based argument identification of
// Section 2.1 on raw user input: literal numbers become indexed NUMBER_k
// tokens (repeated mentions of the same literal share an index), and
// currency amounts ($5) become CURRENCY_k. It returns the normalized
// sentence and the mapping from placeholder to surface form.
func NormalizeSentence(words []string) ([]string, map[string]string) {
	out := make([]string, 0, len(words))
	mapping := map[string]string{}
	assigned := map[string]string{}
	counters := map[string]int{}
	normalize := func(prefix, literal string) string {
		if tok, ok := assigned[prefix+"|"+literal]; ok {
			return tok
		}
		tok := fmt.Sprintf("%s_%d", prefix, counters[prefix])
		counters[prefix]++
		assigned[prefix+"|"+literal] = tok
		mapping[tok] = literal
		return tok
	}
	for _, w := range words {
		switch {
		case isNumericWord(w):
			out = append(out, normalize("NUMBER", w))
		case len(w) > 1 && w[0] == '$' && isNumericWord(w[1:]):
			out = append(out, normalize("CURRENCY", w[1:]))
		default:
			out = append(out, w)
		}
	}
	return out, mapping
}

func isNumericWord(w string) bool {
	if w == "" {
		return false
	}
	dot := false
	for i, c := range w {
		if c == '.' && !dot && i > 0 {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
