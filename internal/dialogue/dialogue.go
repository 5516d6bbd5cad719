// Package dialogue synthesizes multi-turn command sessions and tracks
// per-session conversational state for serving.
//
// Genie's synthesis (Section 3.1) produces single commands; real assistant
// traffic arrives as short dialogues whose follow-up turns lean on the
// previous command ("turn it off", "make it warmer", "and the bedroom one
// too"). This package closes that gap with a contextual construct family:
// every synthesized session starts from a sampled single-turn example and
// each follow-up turn rewrites the previous turn's program — parameter
// substitution, polarity flip, or device/value coreference — paired with a
// follow-up utterance template. The follow-up's gold program is the complete
// rewritten program, so a parser must combine the short utterance with the
// previous program (its decoding context) to recover it.
//
// Synthesis is deterministic with the same contract as synthesis.Synthesize:
// seeds are processed in fixed-size chunks, each chunk draws from an RNG
// derived from (Config.Seed, chunk index), and chunk results merge in chunk
// order — the output is bit-identical for every Workers setting, including
// Workers=1.
//
//genielint:deterministic
package dialogue

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/params"
	"repro/internal/thingtalk"
)

// chunkSize is the unit of deterministic work distribution: every chunk of
// seed examples owns one derived RNG stream regardless of worker count.
const chunkSize = 16

// Config controls session synthesis.
type Config struct {
	// Seed makes the run deterministic; for a fixed seed the output is
	// identical regardless of Workers.
	Seed int64
	// Turns is the number of turns per session (first turn included);
	// values below 2 default to 3.
	Turns int
	// Workers is the number of synthesis goroutines (0 = GOMAXPROCS,
	// 1 = fully sequential). The produced sessions do not depend on it.
	Workers int
	// Schemas resolves parameter types for the rewrite families.
	Schemas thingtalk.SchemaSource
	// Encode serializes programs into the Target and Context token
	// sequences; it must match the parser's target serialization.
	Encode thingtalk.EncodeOptions
}

// Turn is one exchange of a session.
type Turn struct {
	// Words is the user utterance.
	Words []string
	// Program is the gold program after this turn.
	Program *thingtalk.Program
	// Target is Program serialized under Config.Encode.
	Target []string
	// Context is the previous turn's Target (nil on the first turn); it is
	// the contextual parser's second attended memory.
	Context []string
	// Rewrite names the construct family that produced a follow-up turn
	// ("substitute", "polarity", "coreference"); empty on the first turn.
	Rewrite string
}

// Session is one synthesized dialogue.
type Session struct {
	ID    string
	Turns []Turn
}

// Synthesize derives multi-turn sessions from single-turn seed examples.
// Seeds whose programs offer no rewritable parameter site yield no session.
func Synthesize(seeds []dataset.Example, cfg Config) []Session {
	if cfg.Turns < 2 {
		cfg.Turns = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	nChunks := (len(seeds) + chunkSize - 1) / chunkSize
	results := make([][]Session, nChunks)
	runChunk := func(c int) {
		lo, hi := c*chunkSize, (c+1)*chunkSize
		if hi > len(seeds) {
			hi = len(seeds)
		}
		rng := rand.New(rand.NewSource(params.DeriveSeed(cfg.Seed, "dialogue", c)))
		var out []Session
		for i := lo; i < hi; i++ {
			if s, ok := buildSession(&seeds[i], rng, cfg); ok {
				s.ID = fmt.Sprintf("sess-%d", i)
				out = append(out, s)
			}
		}
		results[c] = out
	}
	if cfg.Workers == 1 || nChunks <= 1 {
		for c := 0; c < nChunks; c++ {
			runChunk(c)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range jobs {
					runChunk(c)
				}
			}()
		}
		for c := 0; c < nChunks; c++ {
			jobs <- c
		}
		close(jobs)
		wg.Wait()
	}
	var out []Session
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// buildSession grows one session from a seed example. A rewrite family that
// fails to apply falls through to the next; a turn with no applicable family
// ends the session early (two turns minimum, or no session at all).
func buildSession(e *dataset.Example, rng *rand.Rand, cfg Config) (Session, bool) {
	first := Turn{
		Words:   append([]string(nil), e.Words...),
		Program: e.Program.Clone(),
	}
	first.Target = first.Program.Encode(cfg.Encode)
	s := Session{Turns: []Turn{first}}
	prev := &s.Turns[0]
	for t := 1; t < cfg.Turns; t++ {
		turn, ok := rewriteTurn(prev.Program, rng, cfg)
		if !ok {
			break
		}
		turn.Context = prev.Target
		s.Turns = append(s.Turns, turn)
		prev = &s.Turns[len(s.Turns)-1]
	}
	return s, len(s.Turns) >= 2
}

// rewriteFamilies lists the contextual construct families in canonical
// order; applicability is decided per program, and the applied family is
// drawn uniformly from the applicable ones.
var rewriteFamilies = []struct {
	name  string
	apply func([]site, *rand.Rand, Config) (words []string, ok bool)
}{
	{"substitute", rewriteSubstitute},
	{"polarity", rewritePolarity},
	{"coreference", rewriteCoreference},
}

// rewriteTurn clones the previous program, mutates one parameter site via a
// randomly drawn applicable family, and pairs the result with a follow-up
// utterance.
func rewriteTurn(prev *thingtalk.Program, rng *rand.Rand, cfg Config) (Turn, bool) {
	prog := prev.Clone()
	sites := collectSites(prog, cfg.Schemas)
	if len(sites) == 0 {
		return Turn{}, false
	}
	var applicable []int
	for i, f := range rewriteFamilies {
		if len(familySites(f.name, sites)) > 0 {
			applicable = append(applicable, i)
		}
	}
	if len(applicable) == 0 {
		return Turn{}, false
	}
	f := rewriteFamilies[applicable[rng.Intn(len(applicable))]]
	words, ok := f.apply(familySites(f.name, sites), rng, cfg)
	if !ok {
		return Turn{}, false
	}
	if cfg.Schemas != nil {
		prog = thingtalk.Canonicalize(prog, cfg.Schemas)
	}
	return Turn{
		Words:   words,
		Program: prog,
		Target:  prog.Encode(cfg.Encode),
		Rewrite: f.name,
	}, true
}

// site is one mutable parameter value inside a program: an invocation input
// or a filter atom, with its resolved declared type.
type site struct {
	val   *thingtalk.Value
	param string
	typ   thingtalk.Type
}

// collectSites walks the program's invocations and predicates gathering
// rewritable constant values in deterministic traversal order.
func collectSites(p *thingtalk.Program, schemas thingtalk.SchemaSource) []site {
	var out []site
	invs := p.Invocations()
	for _, inv := range invs {
		var fs *thingtalk.FunctionSchema
		if schemas != nil {
			fs, _ = schemas.Schema(inv.Class, inv.Function)
		}
		for i := range inv.In {
			ip := &inv.In[i]
			typ := ip.Type
			if typ == nil && fs != nil {
				if ps, ok := fs.Param(ip.Name); ok {
					typ = ps.Type
				}
			}
			if typ == nil || !rewritableValue(ip.Value) {
				continue
			}
			out = append(out, site{val: &ip.Value, param: ip.Name, typ: typ})
		}
	}
	collectPredSites(p, invs, schemas, &out)
	return out
}

// collectPredSites gathers filter-atom sites; an atom's type comes from its
// recorded ParamType or, failing that, the first invocation schema that
// declares an output parameter of that name.
func collectPredSites(p *thingtalk.Program, invs []*thingtalk.Invocation, schemas thingtalk.SchemaSource, out *[]site) {
	var walk func(pr *thingtalk.Predicate)
	walk = func(pr *thingtalk.Predicate) {
		if pr == nil {
			return
		}
		switch pr.Kind {
		case thingtalk.PredAtom:
			typ := pr.ParamType
			if typ == nil && schemas != nil {
				for _, inv := range invs {
					fs, ok := schemas.Schema(inv.Class, inv.Function)
					if !ok {
						continue
					}
					if ps, ok := fs.Param(pr.Param); ok && ps.Dir == thingtalk.DirOut {
						typ = ps.Type
						break
					}
				}
			}
			if typ != nil && rewritableValue(pr.Value) {
				*out = append(*out, site{val: &pr.Value, param: pr.Param, typ: typ})
			}
		case thingtalk.PredNot, thingtalk.PredAnd, thingtalk.PredOr:
			for _, ch := range pr.Children {
				walk(ch)
			}
		case thingtalk.PredExternal:
			walk(pr.InnerPred)
		}
	}
	var walkQuery func(q *thingtalk.Query)
	walkQuery = func(q *thingtalk.Query) {
		if q == nil {
			return
		}
		walk(q.Predicate)
		walkQuery(q.Inner)
		walkQuery(q.Right)
	}
	var walkStream func(st *thingtalk.Stream)
	walkStream = func(st *thingtalk.Stream) {
		if st == nil {
			return
		}
		walk(st.Predicate)
		walkQuery(st.Monitor)
		walkStream(st.Inner)
	}
	walkStream(p.Stream)
	walkQuery(p.Query)
}

// rewritableValue reports whether a value is a concrete constant the rewrite
// families can replace (slots, placeholders and parameter passing are not).
func rewritableValue(v thingtalk.Value) bool {
	switch v.Kind {
	case thingtalk.VString, thingtalk.VBool, thingtalk.VEnum:
		return true
	}
	return false
}

// familySites filters sites by family applicability.
func familySites(family string, sites []site) []site {
	var out []site
	for _, s := range sites {
		switch family {
		case "substitute":
			if et, ok := s.typ.(thingtalk.EnumType); ok && len(et.Values) >= 2 && s.val.Kind == thingtalk.VEnum {
				out = append(out, s)
			}
		case "polarity":
			if _, ok := s.typ.(thingtalk.BoolType); ok && s.val.Kind == thingtalk.VBool {
				out = append(out, s)
			}
		case "coreference":
			if thingtalk.IsStringLike(s.typ) && s.val.Kind == thingtalk.VString && len(s.val.Words) > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// enumWords renders an enum member the way sentences spell it (params
// package convention: underscores become spaces).
func enumWords(member string) []string {
	return strings.Fields(strings.ReplaceAll(member, "_", " "))
}

// rewriteSubstitute swaps an enum parameter for a different member of its
// enum ("make it warmer" over a thermostat mode).
func rewriteSubstitute(sites []site, rng *rand.Rand, _ Config) ([]string, bool) {
	s := sites[rng.Intn(len(sites))]
	et := s.typ.(thingtalk.EnumType)
	var others []string
	for _, m := range et.Values {
		if m != s.val.Name {
			others = append(others, m)
		}
	}
	if len(others) == 0 {
		return nil, false
	}
	member := others[rng.Intn(len(others))]
	*s.val = thingtalk.EnumValue(member)
	w := enumWords(member)
	templates := [][]string{
		append([]string{"change", "it", "to"}, w...),
		append([]string{"make", "it"}, w...),
		append([]string{"actually", "set", "it", "to"}, w...),
		append(append([]string{"no", ","}, w...), "instead"),
	}
	return templates[rng.Intn(len(templates))], true
}

// rewritePolarity flips a boolean parameter ("turn it off").
func rewritePolarity(sites []site, rng *rand.Rand, _ Config) ([]string, bool) {
	s := sites[rng.Intn(len(sites))]
	flipped := !s.val.Bool
	*s.val = thingtalk.BoolValue(flipped)
	w := "false"
	if flipped {
		w = "true"
	}
	templates := [][]string{
		{"turn", "it", w},
		{"actually", "make", "that", w},
		{"switch", "it", "to", w},
	}
	return templates[rng.Intn(len(templates))], true
}

// rewriteCoreference re-targets a string-like parameter at a fresh value
// ("and the bedroom one too"): the previous program repeats with only the
// referenced entity replaced.
func rewriteCoreference(sites []site, rng *rand.Rand, cfg Config) ([]string, bool) {
	s := sites[rng.Intn(len(sites))]
	sampler := params.NewSampler()
	for attempt := 0; attempt < 4; attempt++ {
		sample := sampler.Draw(rng, s.typ, s.param)
		if sample.Value.Kind != thingtalk.VString || len(sample.Value.Words) == 0 {
			return nil, false
		}
		if strings.Join(sample.Value.Words, " ") == strings.Join(s.val.Words, " ") {
			continue
		}
		*s.val = sample.Value
		templates := [][]string{
			append(append([]string{"and", "the"}, sample.Words...), "one", "too"),
			append([]string{"do", "the", "same", "for"}, sample.Words...),
			append([]string{"now", "for"}, sample.Words...),
		}
		return templates[rng.Intn(len(templates))], true
	}
	return nil, false
}
