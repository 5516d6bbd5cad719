package dialogue

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/thingtalk"
)

// testSchemas declares a thermostat (enum mode), a light (boolean power plus
// a string name) and a speaker (string device): one function per rewrite
// family.
func testSchemas() thingtalk.SchemaMap {
	m := thingtalk.SchemaMap{}
	m.Add(&thingtalk.FunctionSchema{
		Class: "thermostat", Name: "set_mode", Kind: thingtalk.KindAction,
		Canonical: "set mode",
		Params: []thingtalk.ParamSpec{
			{Name: "mode", Type: thingtalk.EnumType{Values: []string{"heat", "cool", "auto"}}, Dir: thingtalk.DirInReq},
		},
	})
	m.Add(&thingtalk.FunctionSchema{
		Class: "light", Name: "set_power", Kind: thingtalk.KindAction,
		Canonical: "set power",
		Params: []thingtalk.ParamSpec{
			{Name: "power", Type: thingtalk.BoolType{}, Dir: thingtalk.DirInReq},
			{Name: "name", Type: thingtalk.StringType{}, Dir: thingtalk.DirInOpt},
		},
	})
	m.Add(&thingtalk.FunctionSchema{
		Class: "speaker", Name: "play", Kind: thingtalk.KindAction,
		Canonical: "play",
		Params: []thingtalk.ParamSpec{
			{Name: "song", Type: thingtalk.StringType{}, Dir: thingtalk.DirInReq},
		},
	})
	return m
}

func seedExamples() []dataset.Example {
	// Typecheck resolves each parameter's declared type into the program,
	// like the synthesis pipeline's examples; eval compares typechecked
	// predictions against gold, so untyped seeds would never match.
	mk := func(words []string, p *thingtalk.Program) dataset.Example {
		if err := thingtalk.Typecheck(p, testSchemas()); err != nil {
			panic(err)
		}
		return dataset.Example{Words: words, Program: p, Group: dataset.GroupSynthesized}
	}
	return []dataset.Example{
		mk([]string{"set", "the", "thermostat", "to", "heat"},
			&thingtalk.Program{Stream: thingtalk.Now(), Action: thingtalk.Do("thermostat", "set_mode",
				thingtalk.In("mode", thingtalk.EnumValue("heat")))}),
		mk([]string{"turn", "on", "the", "kitchen", "light"},
			&thingtalk.Program{Stream: thingtalk.Now(), Action: thingtalk.Do("light", "set_power",
				thingtalk.In("power", thingtalk.BoolValue(true)),
				thingtalk.In("name", thingtalk.StringValue("kitchen")))}),
		mk([]string{"play", "thunder", "road"},
			&thingtalk.Program{Stream: thingtalk.Now(), Action: thingtalk.Do("speaker", "play",
				thingtalk.In("song", thingtalk.StringValue("thunder", "road")))}),
	}
}

// manySeeds tiles the base examples past one chunk so multi-worker runs
// actually split the work.
func manySeeds(n int) []dataset.Example {
	base := seedExamples()
	out := make([]dataset.Example, 0, n)
	for len(out) < n {
		for i := range base {
			if len(out) >= n {
				break
			}
			out = append(out, base[i].Clone())
		}
	}
	return out
}

func testCfg(workers int) Config {
	return Config{
		Seed:    42,
		Turns:   3,
		Workers: workers,
		Schemas: testSchemas(),
		Encode:  thingtalk.EncodeOptions{TypeAnnotations: true, Schemas: testSchemas()},
	}
}

func TestSynthesizeSessions(t *testing.T) {
	sessions := Synthesize(seedExamples(), testCfg(1))
	if len(sessions) != len(seedExamples()) {
		t.Fatalf("got %d sessions, want %d", len(sessions), len(seedExamples()))
	}
	schemas := testSchemas()
	for _, s := range sessions {
		if len(s.Turns) < 2 {
			t.Fatalf("session %s has %d turns, want >= 2", s.ID, len(s.Turns))
		}
		if s.Turns[0].Context != nil || s.Turns[0].Rewrite != "" {
			t.Errorf("session %s first turn carries context or rewrite", s.ID)
		}
		for i := 1; i < len(s.Turns); i++ {
			turn := s.Turns[i]
			if turn.Rewrite == "" {
				t.Errorf("session %s turn %d has no rewrite family", s.ID, i)
			}
			if !reflect.DeepEqual(turn.Context, s.Turns[i-1].Target) {
				t.Errorf("session %s turn %d context != previous target", s.ID, i)
			}
			if turn.Program.String() == s.Turns[i-1].Program.String() {
				t.Errorf("session %s turn %d rewrite left the program unchanged: %s", s.ID, i, turn.Program)
			}
			if err := thingtalk.Typecheck(turn.Program, schemas); err != nil {
				t.Errorf("session %s turn %d rewritten program fails typecheck: %v", s.ID, i, err)
			}
			if len(turn.Words) == 0 {
				t.Errorf("session %s turn %d has an empty utterance", s.ID, i)
			}
		}
	}
}

// TestSynthesizeWorkerCountDeterminism: the session stream is bit-identical
// for every worker count, the same contract as synthesis.Synthesize.
func TestSynthesizeWorkerCountDeterminism(t *testing.T) {
	seeds := manySeeds(100)
	want := Synthesize(seeds, testCfg(1))
	if len(want) == 0 {
		t.Fatal("no sessions synthesized")
	}
	for _, workers := range []int{2, 3, 8} {
		got := Synthesize(seeds, testCfg(workers))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d sessions, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || len(got[i].Turns) != len(want[i].Turns) {
				t.Fatalf("workers=%d session %d shape differs", workers, i)
			}
			for j := range want[i].Turns {
				a, b := want[i].Turns[j], got[i].Turns[j]
				if strings.Join(a.Words, " ") != strings.Join(b.Words, " ") ||
					strings.Join(a.Target, " ") != strings.Join(b.Target, " ") ||
					strings.Join(a.Context, " ") != strings.Join(b.Context, " ") ||
					a.Rewrite != b.Rewrite {
					t.Fatalf("workers=%d session %d turn %d differs:\n  %v | %v\n  %v | %v",
						workers, i, j, a.Words, a.Target, b.Words, b.Target)
				}
			}
		}
	}
}

// TestSynthesizeFamilies: across many seeds all three families fire.
func TestSynthesizeFamilies(t *testing.T) {
	famSeen := map[string]bool{}
	for _, s := range Synthesize(manySeeds(120), testCfg(1)) {
		for _, turn := range s.Turns[1:] {
			famSeen[turn.Rewrite] = true
		}
	}
	for _, fam := range []string{"substitute", "polarity", "coreference"} {
		if !famSeen[fam] {
			t.Errorf("rewrite family %q never fired", fam)
		}
	}
}

func TestPairs(t *testing.T) {
	sessions := Synthesize(seedExamples(), testCfg(1))
	pairs := Pairs(sessions)
	total := 0
	for _, s := range sessions {
		total += len(s.Turns)
	}
	if len(pairs) != total {
		t.Fatalf("Pairs returned %d pairs for %d turns", len(pairs), total)
	}
	ctxPairs := 0
	for _, p := range pairs {
		if len(p.Ctx) > 0 {
			ctxPairs++
		}
	}
	if follow := total - len(sessions); ctxPairs != follow {
		t.Errorf("%d contextual pairs, want %d (one per follow-up)", ctxPairs, follow)
	}
}
