// Package nltemplate implements the NL-template language of Section 3.1: a
// grammar of construct templates (mapping natural-language compositional
// constructs to ThingTalk operators, with arbitrary semantic functions) and
// the expansion of developer-supplied primitive templates into grammar rules.
//
// A template has the form
//
//	lhs := [literal | vn : rhs]+ -> sf
//
// where sf computes the formal-language value of the derivation and may
// return ⊥ (nil) to reject a combination — this is how type checking such as
// "only monitorable queries can be monitored" is expressed (Section 3.1).
package nltemplate

import (
	"strings"

	"repro/internal/thingtalk"
)

// Category names of the standard ThingTalk grammar.
const (
	CatCommand = "command" // complete programs
	CatNP      = "np"      // query noun phrases
	CatQVP     = "qvp"     // query verb phrases
	CatWP      = "wp"      // stream when-phrases
	CatAVP     = "avp"     // action verb phrases
	CatAVPRef  = "avpref"  // action verb phrases with a parameter-passing hole
	CatNPRef   = "npref"   // query noun phrases with a parameter-passing hole
	CatPred    = "pred"    // boolean predicate phrases
)

// ConstCategory returns the generator category for typed constants; the
// synthesizer mints a fresh slot derivation each time one is requested.
func ConstCategory(t thingtalk.Type) string { return "const:" + t.String() }

// IsConstCategory reports whether cat is a constant-generator category, and
// returns its type.
func IsConstCategory(cat string) (thingtalk.Type, bool) {
	if !strings.HasPrefix(cat, "const:") {
		return nil, false
	}
	t, err := thingtalk.ParseType(cat[len("const:"):])
	if err != nil {
		return nil, false
	}
	return t, true
}

// Derivation is a partial or complete sentence/value pair produced by the
// grammar.
//
//genielint:pooled
type Derivation struct {
	// Words is the sentence so far; unfilled parameters appear as __slot_N
	// markers replaced later by the parameter-replacement stage.
	Words []string
	// Value is the formal fragment: *thingtalk.Program, *thingtalk.Query,
	// *thingtalk.Stream, *thingtalk.Action, *Pred, or
	// thingtalk.Value for constants.
	Value any
	// Depth is 1 + the maximum child depth.
	Depth int
}

// Sentence returns the derivation's words joined by spaces.
func (d *Derivation) Sentence() string { return strings.Join(d.Words, " ") }

// Pred is the value of a predicate-phrase derivation: a predicate together
// with the function selector whose outputs it references (so that filter
// constructs only attach it to matching queries).
type Pred struct {
	Selector  string
	Predicate *thingtalk.Predicate
}

// Symbol is one element of a rule's right-hand side: either literal words or
// a non-terminal reference.
type Symbol struct {
	Literal string // space-separated literal words
	NonTerm string
}

// Lit returns a literal symbol.
func Lit(words string) Symbol { return Symbol{Literal: words} }

// NT returns a non-terminal symbol.
func NT(cat string) Symbol { return Symbol{NonTerm: cat} }

// SemanticFn computes the value of a derivation from its non-terminal
// children (in RHS order). Returning nil rejects the combination (⊥).
type SemanticFn func(children []*Derivation) any

// Rule is one construct or primitive template.
type Rule struct {
	LHS   string
	RHS   []Symbol
	Apply SemanticFn
	// Flags select rule subsets for different purposes; a rule with no
	// flags is used for every purpose (Section 3.1).
	Flags []string
	// Name is a diagnostic label.
	Name string
}

// HasFlag reports whether the rule carries flag (rules without flags match
// everything).
func (r *Rule) HasFlag(flag string) bool {
	if len(r.Flags) == 0 {
		return true
	}
	for _, f := range r.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// NonTerminals returns the indexes of the non-terminal symbols in the RHS.
func (r *Rule) NonTerminals() []int {
	var out []int
	for i, s := range r.RHS {
		if s.NonTerm != "" {
			out = append(out, i)
		}
	}
	return out
}

// Grammar is a set of rules indexed by left-hand-side category.
type Grammar struct {
	rules map[string][]*Rule
	order []string
}

// NewGrammar returns an empty grammar.
func NewGrammar() *Grammar { return &Grammar{rules: map[string][]*Rule{}} }

// Add registers a rule.
func (g *Grammar) Add(r *Rule) {
	if _, ok := g.rules[r.LHS]; !ok {
		g.order = append(g.order, r.LHS)
	}
	g.rules[r.LHS] = append(g.rules[r.LHS], r)
}

// AddRule is a convenience wrapper building a Rule from parts.
func (g *Grammar) AddRule(name, lhs string, rhs []Symbol, apply SemanticFn, flags ...string) {
	g.Add(&Rule{LHS: lhs, RHS: rhs, Apply: apply, Flags: flags, Name: name})
}

// Rules returns the rules for a category.
func (g *Grammar) Rules(cat string) []*Rule { return g.rules[cat] }

// Categories returns the categories with at least one rule, in registration
// order.
func (g *Grammar) Categories() []string { return g.order }

// Derive applies a rule to children (which must match the rule's
// non-terminal count), returning nil if the semantic function rejects the
// combination.
func Derive(r *Rule, children []*Derivation) *Derivation {
	value := r.Apply(children)
	if value == nil {
		return nil
	}
	var words []string
	depth := 0
	ci := 0
	for _, sym := range r.RHS {
		if sym.NonTerm != "" {
			child := children[ci]
			words = append(words, child.Words...)
			if child.Depth > depth {
				depth = child.Depth
			}
			ci++
			continue
		}
		words = append(words, strings.Fields(sym.Literal)...)
	}
	return &Derivation{Words: words, Value: value, Depth: depth + 1}
}
