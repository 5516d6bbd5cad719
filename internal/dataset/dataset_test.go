package dataset

import (
	"strings"
	"testing"

	"repro/internal/thingtalk"
)

func ex(src string, words string) Example {
	p, err := thingtalk.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return Example{Words: strings.Fields(words), Program: p}
}

func TestClassifyFig7Buckets(t *testing.T) {
	examples := []Example{
		ex(`now => @a.b.q => notify`, "get things"),
		ex(`now => @a.b.q filter param:x == 1 => notify`, "get filtered things"),
		ex(`now => @a.b.q => @c.d.act`, "get and act"),
		ex(`now => @a.b.q => @c.d.act param:x = param:y`, "get and act with it"),
		ex(`monitor ( @a.b.q filter param:x == 1 ) => @c.d.act`, "when filtered , act"),
	}
	c := Classify(examples)
	if c.Primitive != 1 || c.PrimitiveWithFilter != 1 || c.Compound != 1 ||
		c.CompoundWithParamPass != 1 || c.CompoundWithFilter != 1 {
		t.Errorf("classification wrong: %+v", c)
	}
	f := c.Fractions()
	var sum float64
	for _, v := range f {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("fractions do not sum to 100: %v", f)
	}
	if c.String() == "" {
		t.Error("empty render")
	}
}

func TestProgramAndComboKeys(t *testing.T) {
	a := ex(`now => @a.b.q => @c.d.act`, "x")
	b := ex(`now => @c.d.q2 => @a.b.act2`, "y")
	if FunctionComboKey(a.Program) == FunctionComboKey(b.Program) {
		t.Error("different combos collide")
	}
	if ProgramKey(a.Program) == ProgramKey(b.Program) {
		t.Error("different programs collide")
	}
}

func TestVocabAndDistinct(t *testing.T) {
	examples := []Example{
		ex(`now => @a.b.q => notify`, "get my things __slot_1"),
		ex(`now => @a.b.q => notify`, "show my things"),
	}
	v := Vocab(examples)
	if v["__slot_1"] {
		t.Error("slots should not count as vocabulary")
	}
	if !v["get"] || !v["show"] {
		t.Error("vocab missing words")
	}
	if DistinctPrograms(examples) != 1 {
		t.Error("identical programs should count once")
	}
	if DistinctCombos(examples) != 1 {
		t.Error("identical combos should count once")
	}
}

func TestNovelty(t *testing.T) {
	pairs := [][2][]string{
		{strings.Fields("get my cat pictures"), strings.Fields("get my cat pictures")},
		{strings.Fields("get my cat pictures"), strings.Fields("fetch my kitty photos")},
	}
	n := Novelty(pairs)
	if n.NewWordRate <= 0 || n.NewWordRate >= 100 {
		t.Errorf("word novelty out of range: %v", n)
	}
	if n.NewBigramRate <= n.NewWordRate {
		t.Errorf("bigram novelty should exceed word novelty here: %+v", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := ex(`now => @a.b.q => notify`, "get things")
	c := e.Clone()
	c.Words[0] = "CHANGED"
	c.Program.Action = &thingtalk.Action{Invocation: &thingtalk.Invocation{Class: "x", Function: "y"}}
	if e.Words[0] == "CHANGED" || e.Program.Action.Invocation != nil {
		t.Error("clone shares state")
	}
}
