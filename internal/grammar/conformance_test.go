package grammar_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/grammar"
	"repro/internal/nltemplate"
	"repro/internal/params"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// corpus builds a realistic instantiated program corpus plus the decoder
// vocabulary a trained model would see (reserved entries + every program
// token), exactly like model.BuildVocab over target sequences.
func corpus(t testing.TB, n int) (*thingpedia.Library, [][]string, []string) {
	t.Helper()
	lib := thingpedia.Builtin()
	g := nltemplate.StandardGrammar(lib, nltemplate.DefaultOptions)
	raw := synthesis.Synthesize(g, synthesis.Config{
		TargetPerRule: 30, MaxDepth: 4, Seed: 7, Schemas: lib,
	})
	sampler := params.NewSampler()
	rng := rand.New(rand.NewSource(11))
	var progs [][]string
	seen := map[string]bool{}
	for i := range raw {
		e := dataset.Example{Words: raw[i].Words, Program: raw[i].Program}
		inst, err := augment.Instantiate(&e, sampler, rng)
		if err != nil {
			continue
		}
		toks := inst.Program.Tokens()
		key := strings.Join(toks, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		progs = append(progs, toks)
		if n > 0 && len(progs) >= n {
			break
		}
	}
	if len(progs) < 100 {
		t.Fatalf("corpus too small: %d programs", len(progs))
	}
	vocabSet := map[string]bool{}
	for _, p := range progs {
		for _, tok := range p {
			vocabSet[tok] = true
		}
	}
	var toks []string
	for tok := range vocabSet {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	vocab := append([]string{"<unk>", "<s>", "</s>"}, toks...)
	return lib, progs, vocab
}

func compile(t testing.TB, lib *thingpedia.Library, vocab []string) *grammar.Automaton {
	t.Helper()
	spec := grammar.NewSpec(lib.Functions())
	auto, err := grammar.Compile(spec, vocab)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return auto
}

const walkBudget = 48 // mirrors the unit-scale MaxDecodeLen

// TestConformance replays every corpus program through the automaton: each
// token must be in the mask before it is consumed, Step must accept it, and
// EOS must be legal at the end. This pins the automaton to the real grammar:
// any construct the synthesis pipeline can emit must be representable.
func TestConformance(t *testing.T) {
	lib, progs, vocab := corpus(t, 0)
	auto := compile(t, lib, vocab)
	index := map[string]int{}
	for i, tok := range vocab {
		if _, ok := index[tok]; !ok {
			index[tok] = i
		}
	}

	var ls grammar.LegalSet
	for _, toks := range progs {
		budget := walkBudget
		if len(toks)+1 > budget {
			budget = len(toks) + 1
		}
		st := auto.Start()
		for i, tok := range toks {
			id, inVocab := index[tok]
			if !inVocab {
				id = -1
			}
			auto.Legal(st, budget, &ls)
			legal := false
			if inVocab {
				legal = ls.Has(int32(id))
			}
			if !legal {
				legal = ls.WordLegal(tok)
			}
			if !legal {
				t.Fatalf("token %d %q not in mask\nprogram: %s", i, tok, strings.Join(toks, " "))
			}
			next, err := auto.Step(st, id, tok)
			if err != nil {
				t.Fatalf("Step(%q): %v\nprogram: %s", tok, err, strings.Join(toks, " "))
			}
			st = next
			budget--
		}
		if !auto.Accepting(st) {
			t.Fatalf("EOS not accepting after full program: %s", strings.Join(toks, " "))
		}
		auto.Legal(st, budget, &ls)
		if !ls.EOS {
			t.Fatalf("EOS not in final mask: %s", strings.Join(toks, " "))
		}
	}
}

// TestRandomWalks drives the automaton from the mask side: random choices
// among the legal tokens must always terminate within the budget and yield a
// program that parses and typechecks. This is the soundness direction — the
// mask never admits a prefix that cannot become a valid program.
func TestRandomWalks(t *testing.T) {
	lib, _, vocab := corpus(t, 400)
	auto := compile(t, lib, vocab)
	schemas := lib.Schemas()
	quoteWords := []string{"alpha", "beta", "gamma"}

	rng := rand.New(rand.NewSource(23))
	var ls grammar.LegalSet
	for walk := 0; walk < 1000; walk++ {
		st := auto.Start()
		var toks []string
		for rem := walkBudget; ; rem-- { // emissions left, EOS slot included
			auto.Legal(st, rem-1, &ls)
			// Bias toward EOS so walks stay short but still explore.
			if ls.EOS && (len(ls.IDs) == 0 || rng.Intn(3) == 0) {
				break
			}
			if rem <= 1 {
				t.Fatalf("walk %d exhausted budget without EOS: %s", walk, strings.Join(toks, " "))
			}
			var tok string
			var id int
			switch {
			case ls.AllTokens && rng.Intn(3) != 0:
				// Inside a quoted string: any word, out-of-vocabulary included.
				tok, id = quoteWords[rng.Intn(len(quoteWords))], -1
			case len(ls.IDs) > 0:
				id = int(ls.IDs[rng.Intn(len(ls.IDs))])
				tok = vocab[id]
			default:
				t.Fatalf("walk %d: dead end (no legal tokens, EOS illegal) after: %s",
					walk, strings.Join(toks, " "))
			}
			next, err := auto.Step(st, id, tok)
			if err != nil {
				t.Fatalf("walk %d: Step(%q) rejected a masked token: %v\nprefix: %s",
					walk, tok, err, strings.Join(toks, " "))
			}
			st = next
			toks = append(toks, tok)
		}
		prog, err := thingtalk.ParseTokens(toks, thingtalk.ParseOptions{})
		if err != nil {
			t.Fatalf("walk %d: masked output does not parse: %v\n%s", walk, err, strings.Join(toks, " "))
		}
		if err := thingtalk.Typecheck(prog, schemas); err != nil {
			t.Fatalf("walk %d: masked output does not typecheck: %v\n%s", walk, err, strings.Join(toks, " "))
		}
	}
}

// TestSpecRoundTrip locks the serializable spec layer: marshal → unmarshal
// preserves the checksum and rebuilds identical schemas.
func TestSpecRoundTrip(t *testing.T) {
	lib := thingpedia.Builtin()
	spec := grammar.NewSpec(lib.Functions())
	data, err := spec.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := grammar.UnmarshalSpec(data)
	if err != nil {
		t.Fatalf("UnmarshalSpec: %v", err)
	}
	if spec.Checksum() != back.Checksum() {
		t.Fatalf("checksum changed across round-trip")
	}
	if spec.Checksum() == "" {
		t.Fatalf("empty checksum")
	}
}
