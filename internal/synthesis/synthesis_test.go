package synthesis

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

func buildGrammar(t testing.TB, opt nltemplate.Options) (*nltemplate.Grammar, *thingpedia.Library) {
	t.Helper()
	lib := thingpedia.Builtin()
	return nltemplate.StandardGrammar(lib, opt), lib
}

func TestSynthesizeProducesValidPrograms(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	examples := Synthesize(g, Config{TargetPerRule: 40, MaxDepth: 4, Seed: 1, Schemas: lib})
	if len(examples) < 500 {
		t.Fatalf("too few synthesized examples: %d", len(examples))
	}
	for i := range examples {
		e := &examples[i]
		if err := thingtalk.Typecheck(e.Program, lib); err != nil {
			t.Fatalf("synthesized program fails typecheck: %v\nsentence: %s\nprogram: %s",
				err, e.Sentence(), e.Program)
		}
		// Canonical form is stable.
		c := thingtalk.Canonicalize(e.Program, lib)
		if c.String() != e.Program.String() {
			t.Fatalf("synthesized program not canonical:\n got: %s\nwant: %s", e.Program, c)
		}
		// Slots in the sentence and program must correspond.
		sslots := slotSet(e.Words)
		pslots := slotSet(e.Program.Tokens())
		if len(sslots) != len(pslots) {
			t.Fatalf("slot mismatch between sentence and program:\nsentence: %s\nprogram: %s", e.Sentence(), e.Program)
		}
		for s := range pslots {
			if !sslots[s] {
				t.Fatalf("program slot %s missing from sentence %q (program %s)", s, e.Sentence(), e.Program)
			}
		}
	}
}

func slotSet(words []string) map[string]bool {
	out := map[string]bool{}
	for _, w := range words {
		if strings.HasPrefix(w, "__slot_") {
			out[w] = true
		}
	}
	return out
}

func TestSynthesizeDeterministic(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	a := Synthesize(g, Config{TargetPerRule: 20, MaxDepth: 3, Seed: 7, Schemas: lib})
	b := Synthesize(g, Config{TargetPerRule: 20, MaxDepth: 3, Seed: 7, Schemas: lib})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Sentence() != b[i].Sentence() || a[i].Program.String() != b[i].Program.String() {
			t.Fatalf("non-deterministic example %d", i)
		}
	}
}

func TestSynthesizeSeedChangesOutput(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	a := Synthesize(g, Config{TargetPerRule: 20, MaxDepth: 4, Seed: 1, Schemas: lib})
	b := Synthesize(g, Config{TargetPerRule: 20, MaxDepth: 4, Seed: 2, Schemas: lib})
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty synthesis")
	}
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Sentence() == b[i].Sentence() {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical output")
	}
}

func TestSynthesizeDepthDistribution(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	examples := Synthesize(g, Config{TargetPerRule: 64, MaxDepth: 5, Seed: 3, Schemas: lib})
	byDepth := map[int]int{}
	for i := range examples {
		byDepth[examples[i].Depth]++
	}
	if byDepth[2] == 0 || byDepth[3] == 0 {
		t.Fatalf("expected examples at depths 2 and 3: %v", byDepth)
	}
	st := Summarize(examples)
	if st.DistinctPrograms == 0 || st.DistinctWords == 0 || st.FunctionPairs == 0 {
		t.Errorf("bad stats: %+v", st)
	}
	t.Logf("examples=%d depths=%v stats=%+v", len(examples), byDepth, st)
}

func TestSynthesizeCompoundAndFilterCoverage(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	examples := Synthesize(g, Config{TargetPerRule: 60, MaxDepth: 5, Seed: 5, Schemas: lib})
	var compound, filtered, passing, timers int
	for i := range examples {
		e := &examples[i]
		if e.Program.IsCompound() {
			compound++
		}
		if e.Program.HasFilter() {
			filtered++
		}
		if e.Program.HasParamPassing() {
			passing++
		}
		if e.Program.Stream.Kind == thingtalk.StreamTimer || e.Program.Stream.Kind == thingtalk.StreamAtTimer {
			timers++
		}
	}
	if compound == 0 || filtered == 0 || passing == 0 || timers == 0 {
		t.Errorf("coverage gap: compound=%d filtered=%d passing=%d timers=%d of %d",
			compound, filtered, passing, timers, len(examples))
	}
}

func TestSynthesizeFlagSubset(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.Options{})
	all := Synthesize(g, Config{TargetPerRule: 30, MaxDepth: 3, Seed: 1, Schemas: lib})
	basic := Synthesize(g, Config{TargetPerRule: 30, MaxDepth: 3, Seed: 1, Schemas: lib, Flag: "basic"})
	if len(basic) == 0 {
		t.Fatal("basic subset empty")
	}
	if len(basic) >= len(all) {
		t.Errorf("flag subset should shrink output: basic=%d all=%d", len(basic), len(all))
	}
}

func TestAggregateSynthesis(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.Options{Aggregates: true, GenericFilters: false})
	examples := Synthesize(g, Config{TargetPerRule: 40, MaxDepth: 3, Seed: 2, Schemas: lib})
	aggs := 0
	for i := range examples {
		if examples[i].Program.Query != nil && examples[i].Program.Query.Kind == thingtalk.QueryAggregate {
			aggs++
		}
	}
	if aggs == 0 {
		t.Error("no aggregation commands synthesized")
	}
}

func exampleKeys(examples []Example) []string {
	out := make([]string, len(examples))
	for i := range examples {
		out[i] = examples[i].Sentence() + " ||| " + examples[i].Program.String()
	}
	return out
}

// TestSynthesizeWorkersDeterministic asserts that sequential and parallel
// sampling produce the same example multiset (in fact the same sequence) for
// a fixed seed: the per-(depth, category) RNG streams and the deterministic
// merge make output independent of the worker count.
func TestSynthesizeWorkersDeterministic(t *testing.T) {
	g, lib := buildGrammar(t, nltemplate.DefaultOptions)
	seq := Synthesize(g, Config{TargetPerRule: 24, MaxDepth: 4, Seed: 11, Schemas: lib, Workers: 1})
	par := Synthesize(g, Config{TargetPerRule: 24, MaxDepth: 4, Seed: 11, Schemas: lib, Workers: 4})
	if len(seq) == 0 {
		t.Fatal("empty synthesis")
	}
	if len(seq) != len(par) {
		t.Fatalf("worker count changed output size: workers=1 %d vs workers=4 %d", len(seq), len(par))
	}
	a, b := exampleKeys(seq), exampleKeys(par)
	// Multiset equality (the contract)...
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("multiset mismatch at %d:\n workers=1: %s\n workers=4: %s", i, as[i], bs[i])
		}
	}
	// ...and the stronger sequence equality the merge guarantees.
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("order mismatch at %d:\n workers=1: %s\n workers=4: %s", i, a[i], b[i])
			break
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	g, lib := buildGrammar(b, nltemplate.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(g, Config{TargetPerRule: 30, MaxDepth: 4, Seed: int64(i), Schemas: lib})
	}
}
