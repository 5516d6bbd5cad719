// Package synthesis implements Genie's randomized data-synthesis algorithm
// (Section 3.1, "Synthesis by Sampling"): a bottom-up sampler over the
// NL-template grammar that considers only a subset of derivations per
// construct template. The target size is configurable and the number of
// derivations decreases exponentially with increasing depth — many low-depth
// programs provide breadth, fewer high-depth programs add variance.
//
// The sampler is organized as a sequence of depth waves. Within a wave every
// grammar category is an independent task: it reads only the frozen pools of
// shallower derivations and writes only its own category, so the tasks of a
// wave run concurrently on Config.Workers goroutines (0 = GOMAXPROCS). Each
// task draws from an RNG seeded deterministically from (Config.Seed, depth,
// category) and task results merge back in grammar-registration order, so
// the output is identical — same examples, same order — for every worker
// count, including Workers=1.
//
// Synthesize returns the complete commands as one slice, which
// genie.BuildData hands on to paraphrasing and parameter replacement;
// SynthesizeCategory returns the derivations of any other category.
//
//genielint:deterministic
package synthesis

import (
	"strings"

	"repro/internal/nltemplate"
	"repro/internal/thingtalk"
)

// Config controls a synthesis run.
type Config struct {
	// TargetPerRule is the sample target for each rule at depth 2; it
	// halves with each further depth level (the paper used 100,000 at full
	// scale).
	TargetPerRule int
	// MaxDepth bounds the derivation tree (the paper used 5).
	MaxDepth int
	// Flag restricts synthesis to rules carrying the flag (rules without
	// flags always participate). Empty selects everything.
	Flag string
	// Seed makes the run deterministic: for a fixed seed the output is
	// identical regardless of Workers.
	Seed int64
	// Schemas canonicalizes the produced programs.
	Schemas thingtalk.SchemaSource
	// Workers is the number of sampling goroutines per depth wave
	// (0 = GOMAXPROCS, 1 = fully sequential). The sampled examples do not
	// depend on the worker count.
	Workers int
}

// DefaultConfig is a small-scale configuration suitable for tests.
var DefaultConfig = Config{TargetPerRule: 200, MaxDepth: 5}

// Example is one synthesized sentence with its program.
type Example struct {
	// Words is the sentence; parameter slots appear as __slot_N markers
	// until the parameter-replacement stage instantiates them.
	Words []string
	// Program is the canonicalized program (slots included).
	Program *thingtalk.Program
	// Depth is the derivation depth.
	Depth int
	// Rule is the top-level construct template that produced the example.
	Rule string
}

// Sentence returns the words joined by spaces.
func (e *Example) Sentence() string { return strings.Join(e.Words, " ") }

// Synthesize runs the sampling synthesis over the grammar and returns the
// complete commands.
func Synthesize(g *nltemplate.Grammar, cfg Config) []Example {
	s := newSampler(g, cfg)
	var out []Example
	s.run(func(e Example) { out = append(out, e) })
	return out
}

// SynthesizeCategory runs the sampler and returns the raw derivations of an
// arbitrary category; language extensions (such as the TACL policy language)
// use it to collect values that are not ThingTalk programs.
func SynthesizeCategory(g *nltemplate.Grammar, cfg Config, category string) []*nltemplate.Derivation {
	s := newSampler(g, cfg)
	s.run(nil)
	return s.pools[category]
}

// valueKey renders a derivation value for deduplication.
func valueKey(v any) string {
	switch x := v.(type) {
	case *thingtalk.Program:
		return x.String()
	case *thingtalk.Query:
		return (&thingtalk.Program{Stream: thingtalk.Now(), Query: x, Action: thingtalk.Notify()}).String()
	case *thingtalk.Stream:
		return (&thingtalk.Program{Stream: x, Action: thingtalk.Notify()}).String()
	case *thingtalk.Action:
		return (&thingtalk.Program{Stream: thingtalk.Now(), Action: x}).String()
	case *nltemplate.Pred:
		return x.Selector + "|" + strings.Join(x.Predicate.Tokens(), " ")
	case thingtalk.Value:
		return x.String()
	case interface{ Tokens() []string }:
		return strings.Join(x.Tokens(), " ")
	}
	return ""
}

// Stats summarizes a synthesized set in the paper's §5.2 terms.
type Stats struct {
	Sentences        int
	DistinctPrograms int
	DistinctWords    int
	FunctionPairs    int // unique combinations of functions
	MaxDepth         int
}

// Summarize computes synthesis statistics.
func Summarize(examples []Example) Stats {
	progs := map[string]bool{}
	words := map[string]bool{}
	pairs := map[string]bool{}
	st := Stats{Sentences: len(examples)}
	for i := range examples {
		e := &examples[i]
		progs[signatureKey(e.Program)] = true
		for _, w := range e.Words {
			if !strings.HasPrefix(w, "__slot_") {
				words[w] = true
			}
		}
		pairs[strings.Join(e.Program.Functions(), "+")] = true
		if e.Depth > st.MaxDepth {
			st.MaxDepth = e.Depth
		}
	}
	st.DistinctPrograms = len(progs)
	st.DistinctWords = len(words)
	st.FunctionPairs = len(pairs)
	return st
}

// signatureKey is the program identity modulo slot numbering: slot IDs are
// normalized so that two programs differing only in slot allocation count as
// one distinct program.
func signatureKey(p *thingtalk.Program) string {
	toks := p.Tokens()
	out := make([]string, len(toks))
	n := 0
	for i, t := range toks {
		if strings.HasPrefix(t, "__slot_") {
			n++
			out[i] = "__slot"
			continue
		}
		out[i] = t
	}
	return strings.Join(out, " ")
}
