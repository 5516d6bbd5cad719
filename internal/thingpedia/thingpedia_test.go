package thingpedia

import (
	"strings"
	"testing"

	"repro/internal/thingtalk"
)

func TestBuiltinLibraryLoads(t *testing.T) {
	lib := Builtin()
	stats := lib.Stats()
	if stats.Skills < 30 {
		t.Errorf("built-in library too small: %d skills", stats.Skills)
	}
	if stats.Functions < 100 {
		t.Errorf("built-in library too small: %d functions", stats.Functions)
	}
	if stats.DistinctParams < 100 {
		t.Errorf("built-in library too small: %d distinct parameters", stats.DistinctParams)
	}
	if stats.Primitives < 250 {
		t.Errorf("built-in library too small: %d primitive templates", stats.Primitives)
	}
	if stats.PerFunction < 2 {
		t.Errorf("too few templates per function: %.1f", stats.PerFunction)
	}
	t.Logf("library: %d skills, %d functions (%d queries, %d actions), %d params, %d templates (%.1f per function)",
		stats.Skills, stats.Functions, stats.Queries, stats.Actions,
		stats.DistinctParams, stats.Primitives, stats.PerFunction)
}

func TestBuiltinSpotifyShape(t *testing.T) {
	lib := Builtin()
	c, ok := lib.Class("com.spotify")
	if !ok {
		t.Fatal("spotify class missing")
	}
	queries, actions := 0, 0
	for _, f := range c.Functions {
		if f.Kind == thingtalk.KindQuery {
			queries++
		} else {
			actions++
		}
	}
	// Section 6.1: 15 queries and 17 actions.
	if queries != 15 || actions != 17 {
		t.Errorf("spotify skill: got %d queries, %d actions; want 15, 17", queries, actions)
	}
}

func TestBuiltinPrimitivesAreTyped(t *testing.T) {
	lib := Builtin()
	for _, p := range lib.Primitives("") {
		var err error
		switch p.Category {
		case CatNP, CatQVP:
			_, err = thingtalk.TypecheckQuery(p.Query, lib)
		case CatWP:
			_, err = thingtalk.TypecheckStream(p.Stream, lib)
		case CatAVP:
			err = thingtalk.TypecheckAction(p.Action, lib, nil)
		}
		if err != nil {
			t.Errorf("template %q fails typecheck: %v", strings.Join(p.Utterance, " "), err)
		}
	}
}

func TestBuiltinEveryFunctionHasTemplate(t *testing.T) {
	lib := Builtin()
	covered := map[string]bool{}
	for _, p := range lib.Primitives("") {
		var prog *thingtalk.Program
		switch {
		case p.Query != nil:
			prog = &thingtalk.Program{Stream: thingtalk.Now(), Query: p.Query, Action: thingtalk.Notify()}
		case p.Stream != nil:
			prog = &thingtalk.Program{Stream: p.Stream, Action: thingtalk.Notify()}
		case p.Action != nil:
			prog = &thingtalk.Program{Stream: thingtalk.Now(), Action: p.Action}
		}
		for _, f := range prog.Functions() {
			covered[f] = true
		}
	}
	for _, f := range lib.Functions() {
		if !covered[f.Selector()] {
			t.Errorf("function %s has no primitive template", f.Selector())
		}
	}
}

func TestParseLibraryErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", `horses { }`},
		{"bad class name", `class dropbox { }`},
		{"bad kind", `class @a.b { retrieval f(out x : String); }`},
		{"bad dir", `class @a.b { query f(inout x : String, out y : String); }`},
		{"bad type", `class @a.b { query f(out x : Str); }`},
		{"action with out", `class @a.b { action f(out x : String); }`},
		{"query without out", `class @a.b { query f(in req x : String); }`},
		{"duplicate class", `class @a.b { query f(out x : String); } class @a.b { query g(out x : String); }`},
		{"undeclared placeholder in utterance", `class @a.b { query f(in req x : String, out y : String); }
			templates { np "things $z" (x : String) := @a.b.f param:x = $x ; }`},
		{"undeclared placeholder in code", `class @a.b { query f(in req x : String, out y : String); }
			templates { np "things $x" (x : String) := @a.b.f param:x = $z ; }`},
		{"unused placeholder", `class @a.b { query f(out y : String); }
			templates { np "things $x" (x : String) := @a.b.f ; }`},
		{"template wrong type", `class @a.b { query f(in req x : Number, out y : String); }
			templates { np "things $x" (x : String) := @a.b.f param:x = $x ; }`},
		{"template unknown function", `templates { np "things" := @a.b.missing ; }`},
		{"template monitor unmonitorable", `class @a.b { query f(out y : String); }
			templates { wp "when things" := monitor ( @a.b.f ) ; }`},
		{"bad category", `class @a.b { query f(out y : String); }
			templates { xp "things" := @a.b.f ; }`},
		{"missing required in template", `class @a.b { query f(in req x : String, out y : String); }
			templates { np "things" := @a.b.f ; }`},
	}
	for _, c := range cases {
		if _, err := ParseLibrary(c.src); err == nil {
			t.Errorf("%s: ParseLibrary should fail", c.name)
		}
	}
}

func TestParseLibraryVPClassification(t *testing.T) {
	src := `
class @a.b {
  query q(out y : String);
  action act(in req m : String);
}
templates {
  vp "get the thing" := @a.b.q ;
  vp "do the thing with $m" (m : String) := @a.b.act param:m = $m ;
  np "the thing" := @a.b.q ;
}`
	lib, err := ParseLibrary(src)
	if err != nil {
		t.Fatal(err)
	}
	prims := lib.Primitives("a.b")
	if len(prims) != 3 {
		t.Fatalf("expected 3 templates, got %d", len(prims))
	}
	if prims[0].Category != CatQVP || prims[0].Query == nil {
		t.Errorf("vp over query should be qvp: %+v", prims[0])
	}
	if prims[1].Category != CatAVP || prims[1].Action == nil {
		t.Errorf("vp over action should be avp: %+v", prims[1])
	}
	if prims[2].Category != CatNP {
		t.Errorf("np should stay np")
	}
	// Slot metadata: the action placeholder should be typed and bound.
	var slot *thingtalk.Value
	for i := range prims[1].Action.Invocation.In {
		slot = &prims[1].Action.Invocation.In[i].Value
	}
	if slot.Kind != thingtalk.VSlot || slot.SlotType == nil || slot.SlotParam != "m" {
		t.Errorf("slot not resolved: %+v", slot)
	}
}

func TestLibraryAsSchemaSource(t *testing.T) {
	lib := Builtin()
	prog, err := thingtalk.ParseProgram(
		`monitor ( @com.twitter.timeline filter param:author == " pldi " ) => @com.twitter.retweet param:tweet_id = param:tweet_id`)
	if err != nil {
		t.Fatal(err)
	}
	if err := thingtalk.Typecheck(prog, lib); err != nil {
		t.Errorf("paper example should typecheck against builtin library: %v", err)
	}
}

func TestClassFlagsAndLookup(t *testing.T) {
	lib := Builtin()
	c, ok := lib.Class("com.twitter")
	if !ok || !c.Easy {
		t.Error("twitter should be an easy class")
	}
	if _, ok := c.Function("timeline"); !ok {
		t.Error("timeline function missing")
	}
	if _, ok := c.Function("nope"); ok {
		t.Error("unexpected function")
	}
	if _, ok := lib.Class("com.nosuch"); ok {
		t.Error("unexpected class")
	}
}

func TestPrimitiveFlags(t *testing.T) {
	src := `
class @a.b { query q(out y : String); }
templates {
  np [train] "the thing" := @a.b.q ;
  np "the other thing" := @a.b.q ;
}`
	lib, err := ParseLibrary(src)
	if err != nil {
		t.Fatal(err)
	}
	prims := lib.Primitives("")
	if len(prims[0].Flags) != 1 || prims[0].Flags[0] != "train" {
		t.Errorf("flagged template flags = %v, want [train]", prims[0].Flags)
	}
	if len(prims[1].Flags) != 0 {
		t.Errorf("unflagged template flags = %v, want none (every purpose)", prims[1].Flags)
	}
}
