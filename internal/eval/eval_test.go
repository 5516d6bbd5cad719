package eval

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/thingtalk"
)

// canned decoder returns fixed token sequences per sentence.
type canned map[string][]string

func (c canned) Parse(words []string) []string { return c[strings.Join(words, " ")] }

func schemas() thingtalk.SchemaMap {
	m := thingtalk.SchemaMap{}
	m.Add(&thingtalk.FunctionSchema{Class: "a.b", Name: "q", Kind: thingtalk.KindQuery, List: true,
		Params: []thingtalk.ParamSpec{{Name: "x", Dir: thingtalk.DirOut, Type: thingtalk.NumberType{}},
			{Name: "text", Dir: thingtalk.DirOut, Type: thingtalk.StringType{}}}})
	m.Add(&thingtalk.FunctionSchema{Class: "a.b", Name: "q2", Kind: thingtalk.KindQuery,
		Params: []thingtalk.ParamSpec{{Name: "y", Dir: thingtalk.DirOut, Type: thingtalk.NumberType{}}}})
	m.Add(&thingtalk.FunctionSchema{Class: "c.d", Name: "act", Kind: thingtalk.KindAction,
		Params: []thingtalk.ParamSpec{{Name: "msg", Dir: thingtalk.DirInOpt, Type: thingtalk.StringType{}}}})
	return m
}

func example(src, sentence string) dataset.Example {
	p, err := thingtalk.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return dataset.Example{Words: strings.Fields(sentence), Program: p}
}

func TestEvaluateLadder(t *testing.T) {
	sch := schemas()
	gold := `now => @a.b.q => notify`
	cases := []struct {
		name   string
		out    string
		expect func(Report) bool
	}{
		{"exact", `now => @a.b.q => notify`, func(r Report) bool { return r.Correct == 1 && r.SyntaxOK == 1 }},
		{"param order irrelevant", `now => @a.b.q => notify ;`, func(r Report) bool { return r.Correct == 1 }},
		{"syntax error", `now => => notify`, func(r Report) bool { return r.Correct == 0 && r.SyntaxOK == 0 }},
		{"type error", `now => @a.b.nosuch => notify`, func(r Report) bool { return r.SyntaxOK == 0 }},
		{"wrong function same shape", `now => @a.b.q2 => notify`, func(r Report) bool {
			return r.Correct == 0 && r.SyntaxOK == 1 && r.PrimCompoundOK == 1 && r.SkillsOK == 1 && r.FunctionsOK == 0
		}},
		{"wrong compoundness", `now => @a.b.q => @c.d.act`, func(r Report) bool {
			return r.PrimCompoundOK == 0 && r.SyntaxOK == 1
		}},
	}
	for _, c := range cases {
		dec := canned{"s": strings.Fields(c.out)}
		rep := Evaluate(dec, []dataset.Example{example(gold, "s")}, sch)
		if !c.expect(rep) {
			t.Errorf("%s: unexpected report %+v", c.name, rep)
		}
	}
}

func TestEvaluateAltAnnotations(t *testing.T) {
	sch := schemas()
	e := example(`now => @a.b.q => notify`, "s")
	alt, _ := thingtalk.ParseProgram(`now => @a.b.q2 => notify`)
	e.Alt = []*thingtalk.Program{alt}
	dec := canned{"s": strings.Fields(`now => @a.b.q2 => notify`)}
	rep := Evaluate(dec, []dataset.Example{e}, sch)
	if rep.Correct != 1 {
		t.Error("alternative annotation should be accepted")
	}
}

func TestEvaluateParamValueError(t *testing.T) {
	sch := schemas()
	e := example(`now => @a.b.q => @c.d.act param:msg = " hello world "`, "s")
	dec := canned{"s": strings.Fields(`now => @a.b.q => @c.d.act param:msg = " goodbye world "`)}
	rep := Evaluate(dec, []dataset.Example{e}, sch)
	if rep.ParamValueError != 1 || rep.Correct != 0 {
		t.Errorf("expected a parameter-value error: %+v", rep)
	}
}

// cannedBatch wraps canned with the batched-decoder surface, recording the
// window widths it was handed.
type cannedBatch struct {
	c       canned
	windows []int
}

func (cb *cannedBatch) ParseBatch(sentences [][]string) [][]string {
	cb.windows = append(cb.windows, len(sentences))
	out := make([][]string, len(sentences))
	for i, s := range sentences {
		out[i] = cb.c.Parse(s)
	}
	return out
}

func TestEvaluateBatchedMatchesSequential(t *testing.T) {
	sch := schemas()
	var examples []dataset.Example
	dec := canned{}
	outs := []string{
		`now => @a.b.q => notify`,     // exact
		`now => => notify`,            // syntax error
		`now => @a.b.q2 => notify`,    // wrong function
		`now => @a.b.q => @c.d.act`,   // wrong compoundness
		`now => @a.b.q => notify ;`,   // exact modulo trailing separator
		`monitor @a.b.q =>`,           // garbage
		`now => @a.b.q => notify`,     // exact again
		`now => @a.b.q2 => @c.d.act`,  // doubly wrong
		`now => @c.d.act`,             // different program entirely
		`now => @a.b.q param:x = > 1`, // malformed filter
	}
	for i, out := range outs {
		sentence := string(rune('a' + i))
		examples = append(examples, example(`now => @a.b.q => notify`, sentence))
		dec[sentence] = strings.Fields(out)
	}
	want := Evaluate(dec, examples, sch)
	for _, batch := range []int{0, 1, 3, 16} {
		cb := &cannedBatch{c: dec}
		got := EvaluateBatched(cb, examples, sch, batch)
		if got != want {
			t.Errorf("EvaluateBatched(batch=%d) = %+v, Evaluate = %+v", batch, got, want)
		}
		wantWindow := batch
		if batch <= 0 {
			wantWindow = 16
		}
		if wantWindow > len(examples) {
			wantWindow = len(examples)
		}
		if len(cb.windows) == 0 || cb.windows[0] != wantWindow {
			t.Errorf("EvaluateBatched(batch=%d) windows = %v, first should be %d", batch, cb.windows, wantWindow)
		}
	}
}

func TestMeanRange(t *testing.T) {
	m, hr := MeanRange([]float64{60, 70, 65})
	if m != 65 || hr != 5 {
		t.Errorf("MeanRange = %v ± %v", m, hr)
	}
	if m, hr := MeanRange(nil); m != 0 || hr != 0 {
		t.Error("empty input should be zero")
	}
}
