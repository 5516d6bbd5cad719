// Package tacl implements the ThingTalk Access Control Language of
// Section 6.2 (Fig. 10): policies that state who may run which primitive
// commands over the user's data. A policy pairs a source predicate (the
// person requesting access) with a filtered primitive query or action.
//
// The package reuses the ThingTalk substrate end to end — grammar rules over
// the same skill library, the same synthesis engine, parameter replacement
// and the same neural parser — and adds the policy construct templates (the
// paper wrote 6) plus policy-level encoding, parsing and evaluation.
package tacl

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/params"
	"repro/internal/paraphrase"
	"repro/internal/synthesis"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// Policy is one access-control rule: source may run the command.
type Policy struct {
	// Source is the person the policy grants access to (a role word).
	Source string
	// Program is the primitive command the policy permits (now => q =>
	// notify for read access, now => a for actions).
	Program *thingtalk.Program
}

// Tokens renders the policy in canonical token form:
//
//	param:source == " secretary " : now => ... ;
func (p *Policy) Tokens() []string {
	out := []string{"param:source", "==", `"`}
	out = append(out, strings.Fields(p.Source)...)
	out = append(out, `"`, ":")
	return append(out, p.Program.Tokens()...)
}

// ParsePolicy parses a canonical policy token sequence.
func ParsePolicy(toks []string, schemas thingtalk.SchemaSource) (*Policy, error) {
	// Find the ":" separator after the quoted source.
	sep := -1
	for i, t := range toks {
		if t == ":" {
			sep = i
			break
		}
	}
	if sep < 4 || toks[0] != "param:source" || toks[1] != "==" || toks[2] != `"` || toks[sep-1] != `"` {
		return nil, fmt.Errorf("tacl: malformed policy header")
	}
	source := strings.Join(toks[3:sep-1], " ")
	if source == "" {
		return nil, fmt.Errorf("tacl: empty policy source")
	}
	prog, err := thingtalk.ParseTokens(toks[sep+1:], thingtalk.ParseOptions{Schemas: schemas})
	if err != nil {
		return nil, err
	}
	if err := thingtalk.Typecheck(prog, schemas); err != nil {
		return nil, err
	}
	if prog.Stream.Kind != thingtalk.StreamNow {
		return nil, fmt.Errorf("tacl: policies cover primitive commands only")
	}
	return &Policy{Source: source, Program: prog}, nil
}

// Roles are the paper-style access-control subjects.
var Roles = []string{
	"secretary", "mom", "dad", "babysitter", "roommate", "boss",
	"assistant", "wife", "husband", "doctor", "accountant", "neighbor",
}

// PolicyCategory is the grammar category of complete policies.
const PolicyCategory = "policy"

// AddPolicyRules installs the six policy construct templates over an
// existing ThingTalk grammar (np and avp pools come from the skill
// library's primitive templates).
func AddPolicyRules(g *nltemplate.Grammar, lib *thingpedia.Library) {
	for _, role := range Roles {
		r := role
		readPolicy := func(c []*nltemplate.Derivation) any {
			q, ok := c[0].Value.(*thingtalk.Query)
			if !ok || q == nil {
				return nil
			}
			prog := &thingtalk.Program{Stream: thingtalk.Now(), Query: q.Clone(), Action: thingtalk.Notify()}
			if err := thingtalk.Typecheck(prog, lib); err != nil {
				return nil
			}
			return &Policy{Source: r, Program: thingtalk.Canonicalize(prog, lib)}
		}
		doPolicy := func(c []*nltemplate.Derivation) any {
			a, ok := c[0].Value.(*thingtalk.Action)
			if !ok || a == nil {
				return nil
			}
			prog := &thingtalk.Program{Stream: thingtalk.Now(), Action: a.Clone()}
			if err := thingtalk.Typecheck(prog, lib); err != nil {
				return nil
			}
			return &Policy{Source: r, Program: thingtalk.Canonicalize(prog, lib)}
		}
		// The six construct templates of Section 6.2.
		g.AddRule("policy:cansee:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("my " + r + " can see"), nltemplate.NT(nltemplate.CatNP)}, readPolicy)
		g.AddRule("policy:allowed-see:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("my " + r + " is allowed to see"), nltemplate.NT(nltemplate.CatNP)}, readPolicy)
		g.AddRule("policy:show:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("show my " + r), nltemplate.NT(nltemplate.CatNP)}, readPolicy)
		g.AddRule("policy:cando:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("my " + r + " can"), nltemplate.NT(nltemplate.CatAVP)}, doPolicy)
		g.AddRule("policy:allow-to:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("allow my " + r + " to"), nltemplate.NT(nltemplate.CatAVP)}, doPolicy)
		g.AddRule("policy:let:"+r, PolicyCategory,
			[]nltemplate.Symbol{nltemplate.Lit("let my " + r), nltemplate.NT(nltemplate.CatAVP)}, doPolicy)
	}
}

// Example is one policy sentence with its gold policy.
type Example struct {
	Words  []string
	Policy *Policy
}

// Sentence joins the words.
func (e *Example) Sentence() string { return strings.Join(e.Words, " ") }

// Synthesize builds policy examples over a library.
func Synthesize(lib *thingpedia.Library, target, maxDepth int, seed int64) []Example {
	g := nltemplate.StandardGrammar(lib, nltemplate.Options{GenericFilters: true, MaxFilterParams: 3})
	AddPolicyRules(g, lib)
	ders := synthesis.SynthesizeCategory(g, synthesis.Config{
		TargetPerRule: target, MaxDepth: maxDepth, Seed: seed, Schemas: lib,
	}, PolicyCategory)
	out := make([]Example, 0, len(ders))
	for _, d := range ders {
		pol, ok := d.Value.(*Policy)
		if !ok {
			continue
		}
		out = append(out, Example{Words: d.Words, Policy: pol})
	}
	return out
}

// Instantiate replaces parameter slots in a policy example.
func Instantiate(e *Example, sampler *params.Sampler, rng *rand.Rand) (Example, bool) {
	wrapped := dataset.Example{Words: e.Words, Program: e.Policy.Program}
	inst, err := augment.Instantiate(&wrapped, sampler, rng)
	if err != nil {
		return Example{}, false
	}
	return Example{Words: inst.Words, Policy: &Policy{Source: e.Policy.Source, Program: inst.Program}}, true
}

// Dataset is a complete TACL experiment dataset.
type Dataset struct {
	Lib        *thingpedia.Library
	Train      []Example // instantiated, paraphrase + synthesized mix
	TrainBase  []Example // paraphrases only, no expansion (the Baseline)
	ParaTest   []Example
	Cheatsheet []Example
}

// Build synthesizes, paraphrases and splits a TACL dataset; expansion is the
// number of parameter instantiations per training sentence for the Genie
// strategy.
func Build(lib *thingpedia.Library, target, maxDepth, paraMax, expansion int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	sampler := params.NewSampler()
	synth := Synthesize(lib, target, maxDepth, seed)
	rng.Shuffle(len(synth), func(i, j int) { synth[i], synth[j] = synth[j], synth[i] })

	// Paraphrase a sample via the shared crowdworker simulator.
	sel := synth
	if len(sel) > paraMax {
		sel = sel[:paraMax]
	}
	wrapped := make([]dataset.Example, len(sel))
	for i := range sel {
		wrapped[i] = dataset.Example{Words: sel[i].Words, Program: sel[i].Policy.Program}
	}
	res := paraphrase.Simulate(wrapped, paraphrase.Config{Seed: seed + 1})
	paras := make([]Example, 0, len(res.Paraphrases))
	for i := range res.Paraphrases {
		// Pair each paraphrase back with its source policy by program
		// identity.
		paras = append(paras, Example{
			Words:  res.Paraphrases[i].Words,
			Policy: &Policy{Source: sourceFor(res.Paraphrases[i].Words, sel), Program: res.Paraphrases[i].Program},
		})
	}
	paras = filterValid(paras)

	d := &Dataset{Lib: lib}
	// Unique-paraphrase test split (Section 6.2: "the test consists
	// exclusively of paraphrases unique to the whole set").
	testN := len(paras) / 5
	for i, e := range paras {
		inst, ok := Instantiate(&e, sampler, rng)
		if !ok {
			continue
		}
		if i < testN {
			d.ParaTest = append(d.ParaTest, inst)
			continue
		}
		d.TrainBase = append(d.TrainBase, inst)
		d.Train = append(d.Train, inst)
		for k := 1; k < expansion; k++ {
			if more, ok := Instantiate(&e, sampler, rng); ok {
				d.Train = append(d.Train, more)
			}
		}
	}
	// Genie adds the synthesized policies to training.
	for i := range synth {
		if inst, ok := Instantiate(&synth[i], sampler, rng); ok {
			d.Train = append(d.Train, inst)
		}
	}
	// Cheatsheet-style realistic test: user-lexicon rewrites of fresh
	// synthesized policies.
	for i := len(synth) - 1; i >= 0 && len(d.Cheatsheet) < 80; i-- {
		e := synth[i]
		rew := userRewrite(e.Words, rng)
		if inst, ok := Instantiate(&Example{Words: rew, Policy: e.Policy}, sampler, rng); ok {
			d.Cheatsheet = append(d.Cheatsheet, inst)
		}
	}
	return d
}

// sourceFor recovers the role mentioned in a paraphrase (roles are preserved
// words).
func sourceFor(words []string, pool []Example) string {
	for _, w := range words {
		for _, r := range Roles {
			if w == r {
				return r
			}
		}
	}
	if len(pool) > 0 {
		return pool[0].Policy.Source
	}
	return Roles[0]
}

func filterValid(es []Example) []Example {
	out := es[:0]
	for _, e := range es {
		ok := false
		for _, w := range e.Words {
			for _, r := range Roles {
				if w == r {
					ok = true
				}
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// userRewrite is a light distribution shift for the cheatsheet test.
var userPolicyTable = map[string][]string{
	"can":     {"may", "is permitted to"},
	"see":     {"look at", "read", "view"},
	"allow":   {"permit", "authorize"},
	"let":     {"authorize"},
	"my":      {"my"},
	"show":    {"reveal to"},
	"allowed": {"permitted", "cleared"},
}

func userRewrite(words []string, rng *rand.Rand) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if choices := userPolicyTable[w]; len(choices) > 0 && rng.Intn(2) == 0 {
			out = append(out, strings.Fields(choices[rng.Intn(len(choices))])...)
			continue
		}
		out = append(out, w)
	}
	return out
}

// ToPairs serializes policy examples for the parser.
func ToPairs(examples []Example) []model.Pair {
	out := make([]model.Pair, len(examples))
	for i := range examples {
		out[i] = model.Pair{Src: examples[i].Words, Tgt: examples[i].Policy.Tokens()}
	}
	return out
}

// Evaluate measures exact policy accuracy (canonicalized program plus
// source) of a decoder on examples.
func Evaluate(dec eval.Decoder, examples []Example, schemas thingtalk.SchemaSource) (accuracy float64) {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	for i := range examples {
		toks := dec.Parse(examples[i].Words)
		pol, err := ParsePolicy(toks, schemas)
		if err != nil {
			continue
		}
		if pol.Source != examples[i].Policy.Source {
			continue
		}
		if thingtalk.SameProgram(pol.Program, examples[i].Policy.Program, schemas) {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(examples))
}
