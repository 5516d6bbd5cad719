// Package dataset defines the example representation shared by the Genie
// pipeline stages (synthesis output, paraphrases, augmented training sets,
// evaluation sets) and the dataset statistics reported in Section 5.2 and
// Fig. 7 of the paper.
package dataset

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/thingtalk"
)

// Group identifies the provenance of an example; the training strategy and
// the parameter-expansion factors depend on it (Section 3.4).
type Group int

// Example groups.
const (
	// GroupSynthesized examples come straight from template synthesis.
	GroupSynthesized Group = iota
	// GroupParaphrase examples were (simulated-)crowdworker paraphrased.
	GroupParaphrase
	// GroupEval examples are realistic evaluation data (developer,
	// cheatsheet, or IFTTT).
	GroupEval
)

func (g Group) String() string {
	switch g {
	case GroupSynthesized:
		return "synthesized"
	case GroupParaphrase:
		return "paraphrase"
	case GroupEval:
		return "eval"
	}
	return "invalid"
}

// Example is one sentence/program pair.
type Example struct {
	// Words is the tokenized sentence. Before parameter replacement it may
	// contain __slot_N markers; afterwards it contains normalized
	// placeholders (NUMBER_0, DATE_0, ...) and real words.
	Words []string
	// Program is the canonical target program.
	Program *thingtalk.Program
	// Alt holds additional valid annotations; evaluation accepts any of
	// them (Section 5: "we manually annotate each sentence in the test
	// sets with all programs that provide a valid interpretation").
	Alt []*thingtalk.Program
	// Group is the example's provenance.
	Group Group
	// Depth is the synthesis derivation depth (0 when unknown).
	Depth int
}

// Sentence returns the words joined by spaces.
func (e *Example) Sentence() string { return strings.Join(e.Words, " ") }

// Clone returns a deep copy.
func (e *Example) Clone() Example {
	alt := make([]*thingtalk.Program, len(e.Alt))
	for i, p := range e.Alt {
		alt[i] = p.Clone()
	}
	return Example{
		Words:   append([]string(nil), e.Words...),
		Program: e.Program.Clone(),
		Alt:     alt,
		Group:   e.Group,
		Depth:   e.Depth,
	}
}

// Collect drains a channel of examples into a slice, stopping after max
// examples (0 = no cap) or when ctx is cancelled. The benchmark drains
// genie.PipelineStream with it. Returning early — because max was reached or
// ctx fired — leaves the producer parked on its channel until ctx is
// cancelled, so a caller that may stop before the channel closes must own a
// cancelable context and cancel it afterwards.
func Collect(ctx context.Context, ch <-chan Example, max int) []Example {
	var out []Example
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, e)
			if max > 0 && len(out) >= max {
				return out
			}
		case <-ctx.Done():
			return out
		}
	}
}

// ProgramKey returns the canonical program identity of an example (used for
// grouping by program and for held-out-combination splits).
func ProgramKey(p *thingtalk.Program) string { return p.String() }

// FunctionComboKey returns the sorted set of functions a program uses; the
// compositionality evaluation holds out whole combinations (Section 5.2).
func FunctionComboKey(p *thingtalk.Program) string {
	fns := append([]string(nil), p.Functions()...)
	sort.Strings(fns)
	return strings.Join(fns, "+")
}

// --- Fig. 7: training-set characteristics -------------------------------------

// Characteristics classifies the programs of a set into the five buckets of
// Fig. 7.
type Characteristics struct {
	Primitive             int // one function, no filter
	PrimitiveWithFilter   int // one function + filters
	Compound              int // two+ functions, no parameter passing, no filter
	CompoundWithParamPass int // two+ functions with parameter passing
	CompoundWithFilter    int // two+ functions with filters (no passing)
	Total                 int
}

// Classify computes Fig. 7's buckets for a list of examples.
func Classify(examples []Example) Characteristics {
	var c Characteristics
	for i := range examples {
		p := examples[i].Program
		c.Total++
		switch {
		case !p.IsCompound() && !p.HasFilter():
			c.Primitive++
		case !p.IsCompound():
			c.PrimitiveWithFilter++
		case p.HasParamPassing():
			c.CompoundWithParamPass++
		case p.HasFilter():
			c.CompoundWithFilter++
		default:
			c.Compound++
		}
	}
	return c
}

// Fractions returns the five buckets as percentages.
func (c Characteristics) Fractions() map[string]float64 {
	if c.Total == 0 {
		return nil
	}
	t := float64(c.Total)
	return map[string]float64{
		"primitive":           100 * float64(c.Primitive) / t,
		"primitive+filters":   100 * float64(c.PrimitiveWithFilter) / t,
		"compound":            100 * float64(c.Compound) / t,
		"compound+param-pass": 100 * float64(c.CompoundWithParamPass) / t,
		"compound+filters":    100 * float64(c.CompoundWithFilter) / t,
	}
}

// String renders the characteristics like the Fig. 7 legend.
func (c Characteristics) String() string {
	f := c.Fractions()
	return fmt.Sprintf("primitive %.0f%% (+filters %.0f%%), compound %.0f%% (+param-passing %.0f%%, +filters %.0f%%)",
		f["primitive"], f["primitive+filters"], f["compound"],
		f["compound+param-pass"], f["compound+filters"])
}

// --- Section 5.2: vocabulary statistics ----------------------------------------

// Vocab computes the distinct non-placeholder words of a set.
func Vocab(examples []Example) map[string]bool {
	out := map[string]bool{}
	for i := range examples {
		for _, w := range examples[i].Words {
			if !strings.HasPrefix(w, "__slot_") {
				out[w] = true
			}
		}
	}
	return out
}

// DistinctPrograms counts canonical program spellings.
func DistinctPrograms(examples []Example) int {
	seen := map[string]bool{}
	for i := range examples {
		seen[ProgramKey(examples[i].Program)] = true
	}
	return len(seen)
}

// DistinctCombos counts unique function combinations.
func DistinctCombos(examples []Example) int {
	seen := map[string]bool{}
	for i := range examples {
		seen[FunctionComboKey(examples[i].Program)] = true
	}
	return len(seen)
}

// NoveltyStats measures how much new language a derived sentence introduces
// relative to its source (the paper reports 38% new words and 65% new
// bigrams per paraphrase).
type NoveltyStats struct {
	NewWordRate   float64
	NewBigramRate float64
}

// Novelty compares derived sentences with their sources pairwise.
func Novelty(pairs [][2][]string) NoveltyStats {
	var wordSum, bigramSum float64
	n := 0
	for _, pair := range pairs {
		src, der := pair[0], pair[1]
		srcW := map[string]bool{}
		for _, w := range src {
			srcW[w] = true
		}
		srcB := bigrams(src)
		newW, newB := 0, 0
		derB := bigrams(der)
		for _, w := range der {
			if !srcW[w] {
				newW++
			}
		}
		for b := range derB {
			if !srcB[b] {
				newB++
			}
		}
		if len(der) > 0 {
			wordSum += float64(newW) / float64(len(der))
		}
		if len(derB) > 0 {
			bigramSum += float64(newB) / float64(len(derB))
		}
		n++
	}
	if n == 0 {
		return NoveltyStats{}
	}
	return NoveltyStats{
		NewWordRate:   100 * wordSum / float64(n),
		NewBigramRate: 100 * bigramSum / float64(n),
	}
}

func bigrams(words []string) map[string]bool {
	out := map[string]bool{}
	for i := 1; i < len(words); i++ {
		out[words[i-1]+" "+words[i]] = true
	}
	return out
}
