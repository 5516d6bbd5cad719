package nltemplate

import (
	"testing"

	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// ruleCount returns the total number of rules of g.
func ruleCount(g *Grammar) int {
	n := 0
	for _, rs := range g.rules {
		n += len(rs)
	}
	return n
}

func TestStandardGrammarShape(t *testing.T) {
	lib := thingpedia.Builtin()
	g := StandardGrammar(lib, DefaultOptions)
	if ruleCount(g) < 400 {
		t.Errorf("grammar too small: %d rules", ruleCount(g))
	}
	for _, cat := range []string{CatCommand, CatNP, CatWP, CatAVP, CatPred, CatAVPRef} {
		if len(g.Rules(cat)) == 0 {
			t.Errorf("category %s has no rules", cat)
		}
	}
	// Aggregates only when enabled.
	opts := DefaultOptions
	opts.Aggregates = true
	g2 := StandardGrammar(lib, opts)
	if ruleCount(g2) <= ruleCount(g) {
		t.Error("aggregate rules missing")
	}
}

func TestConstCategory(t *testing.T) {
	cat := ConstCategory(thingtalk.MeasureType{Unit: "byte"})
	typ, ok := IsConstCategory(cat)
	if !ok || !typ.Equal(thingtalk.MeasureType{Unit: "byte"}) {
		t.Errorf("const category round trip failed: %s", cat)
	}
	if _, ok := IsConstCategory("np"); ok {
		t.Error("np is not a const category")
	}
}

func TestDeriveRejects(t *testing.T) {
	r := &Rule{
		LHS:   "x",
		RHS:   []Symbol{Lit("hello"), NT("y")},
		Apply: func(c []*Derivation) any { return nil },
	}
	child := &Derivation{Words: []string{"w"}, Depth: 1}
	if Derive(r, []*Derivation{child}) != nil {
		t.Error("⊥ semantic function should reject the derivation")
	}
	r.Apply = func(c []*Derivation) any { return thingtalk.Now() }
	d := Derive(r, []*Derivation{child})
	if d == nil || d.Sentence() != "hello w" || d.Depth != 2 {
		t.Errorf("derivation wrong: %+v", d)
	}
}

func TestRuleFlags(t *testing.T) {
	r := &Rule{Flags: []string{"basic"}}
	if !r.HasFlag("basic") || r.HasFlag("other") {
		t.Error("flag matching wrong")
	}
	unflagged := &Rule{}
	if !unflagged.HasFlag("anything") {
		t.Error("unflagged rules match everything")
	}
}
