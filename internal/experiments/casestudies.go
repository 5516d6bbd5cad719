package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/genie"
	"repro/internal/ifttt"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/tacl"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// Fig9Row is one case study: Baseline (Wang et al.: paraphrase-only, no
// augmentation, no parameter expansion) vs Genie, on cheatsheet test data.
type Fig9Row struct {
	Case     string
	Baseline Fig8Cell
	Genie    Fig8Cell
}

// Fig9Result is the three case studies of Section 6.
type Fig9Result struct{ Rows []Fig9Row }

// Fig9 runs the Spotify, TACL and TT+A case studies.
func Fig9(scale genie.Scale, baseSeed int64) Fig9Result {
	return Fig9Result{Rows: []Fig9Row{
		fig9Spotify(scale, baseSeed),
		fig9TACL(scale, baseSeed),
		fig9Aggregates(scale, baseSeed),
	}}
}

// fig9Spotify: the comprehensive music skill of Section 6.1 with quote-free
// song/artist parameters.
func fig9Spotify(scale genie.Scale, baseSeed int64) Fig9Row {
	lib := thingpedia.SpotifyOnly()
	d := genie.BuildData(lib, nltemplate.Options{GenericFilters: true, MaxFilterParams: 3}, scale, baseSeed)
	return runStrategyPair("Spotify", scale, d, d.Cheatsheet)
}

// fig9Aggregates: the TT+A extension of Section 6.3, evaluated on
// aggregation commands only.
func fig9Aggregates(scale genie.Scale, baseSeed int64) Fig9Row {
	lib := thingpedia.Builtin()
	opts := nltemplate.DefaultOptions
	opts.Aggregates = true
	d := genie.BuildData(lib, opts, scale, baseSeed)
	aggOnly := func(set []dataset.Example) []dataset.Example {
		var out []dataset.Example
		for i := range set {
			if set[i].Program.Query != nil && set[i].Program.Query.Kind == thingtalk.QueryAggregate {
				out = append(out, set[i])
			}
		}
		return out
	}
	return runStrategyPair("TT+A", scale, d, aggOnly(d.Cheatsheet))
}

func runStrategyPair(name string, scale genie.Scale, d *genie.Data, testSet []dataset.Example) Fig9Row {
	row := Fig9Row{Case: name}
	// Each (seed, strategy) training run is independent; fan out over
	// scale.Workers and merge in job order.
	strategies := []genie.Strategy{genie.StrategyBaseline, genie.StrategyGenie}
	accs := make([]float64, 2*len(scale.Seeds))
	runJobs(scale.Workers, len(accs), func(i int) {
		seed := scale.Seeds[i/2]
		p := d.Train(genie.TrainOptions{Strategy: strategies[i%2], Topt: genie.CanonicalTargets, Model: scale.Model, Seed: seed})
		accs[i] = d.Evaluate(p, testSet).ProgramAccuracy()
	})
	var base, gen []float64
	for si := range scale.Seeds {
		base = append(base, accs[2*si])
		gen = append(gen, accs[2*si+1])
	}
	row.Baseline.Mean, row.Baseline.HalfRange = eval.MeanRange(base)
	row.Genie.Mean, row.Genie.HalfRange = eval.MeanRange(gen)
	return row
}

// fig9TACL: the access-control language of Section 6.2. The dataset depends
// only on baseSeed, so it is built once; the per-(seed, variant) training
// runs fan out like runStrategyPair's.
func fig9TACL(scale genie.Scale, baseSeed int64) Fig9Row {
	lib := thingpedia.Builtin()
	row := Fig9Row{Case: "TACL"}
	d := tacl.Build(lib, scale.SynthTarget, 3, scale.ParaphraseMax, 3, baseSeed)
	accs := make([]float64, 2*len(scale.Seeds))
	runJobs(scale.Workers, len(accs), func(i int) {
		mcfg := scale.Model
		mcfg.Seed = scale.Seeds[i/2]
		// Even jobs: baseline (paraphrases only, single instantiation);
		// odd jobs: Genie (synthesized + expanded paraphrases).
		train := d.TrainBase
		if i%2 == 1 {
			train = d.Train
		}
		p := trainTACL(train, d.ParaTest, mcfg)
		accs[i] = tacl.Evaluate(p, d.Cheatsheet, lib)
	})
	var base, gen []float64
	for si := range scale.Seeds {
		base = append(base, accs[2*si])
		gen = append(gen, accs[2*si+1])
	}
	row.Baseline.Mean, row.Baseline.HalfRange = eval.MeanRange(base)
	row.Genie.Mean, row.Genie.HalfRange = eval.MeanRange(gen)
	return row
}

func trainTACL(train, val []tacl.Example, mcfg model.Config) *model.Parser {
	pairs := tacl.ToPairs(train)
	valPairs := tacl.ToPairs(val)
	var lm [][]string
	for _, p := range pairs {
		lm = append(lm, p.Tgt)
	}
	return model.Train(pairs, valPairs, lm, mcfg)
}

// Print renders Fig. 9.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 9 — case studies on cheatsheet test data (program accuracy)")
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "case", "Baseline", "Genie")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-10s  %5.1f ± %-5.1f  %5.1f ± %-5.1f\n",
			row.Case, row.Baseline.Mean, row.Baseline.HalfRange, row.Genie.Mean, row.Genie.HalfRange)
	}
}

// LimitationResult reproduces §5.2's "Limitation of Paraphrase Tests": a
// Wang-et-al-style model (single construct and primitive template set,
// paraphrase-only training) scored three ways.
type LimitationResult struct {
	InDistribution float64 // paraphrases of programs seen in training
	UnseenCombos   float64 // paraphrases of unseen function combinations
	Realistic      float64 // cheatsheet data
}

// Limitation runs the experiment.
func Limitation(scale genie.Scale, seed int64) LimitationResult {
	lib := thingpedia.Builtin()
	// Restrict synthesis to the "basic" construct subset, mimicking the
	// original methodology's single construct template per shape.
	g := nltemplate.StandardGrammar(lib, nltemplate.Options{})
	d := genie.BuildDataWithGrammarFlag(lib, g, scale, seed, "basic")
	p := d.Train(genie.TrainOptions{Strategy: genie.StrategyParaphraseOnly, Topt: genie.CanonicalTargets, Model: scale.Model, Seed: seed})

	// In-distribution paraphrase test: held-in combinations.
	var inDist []dataset.Example
	rng := rand.New(rand.NewSource(seed + 9))
	for i := range d.Paraphrases {
		if d.HeldOutCombos[dataset.FunctionComboKey(d.Paraphrases[i].Program)] {
			continue
		}
		if inst, ok := genie.InstantiateExample(d, &d.Paraphrases[i], rng); ok {
			inDist = append(inDist, inst)
		}
		if len(inDist) >= scale.EvalN {
			break
		}
	}
	return LimitationResult{
		InDistribution: d.Evaluate(p, inDist).ProgramAccuracy(),
		UnseenCombos:   d.Evaluate(p, d.ParaTest).ProgramAccuracy(),
		Realistic:      d.Evaluate(p, d.Cheatsheet).ProgramAccuracy(),
	}
}

// Print renders the limitation experiment.
func (r LimitationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§5.2 — limitation of paraphrase tests (Wang-et-al methodology)")
	fmt.Fprintf(w, "  paraphrases of trained programs:     %5.1f%% (paper: 95%%)\n", r.InDistribution)
	fmt.Fprintf(w, "  paraphrases of unseen combinations:  %5.1f%% (paper: 48%%)\n", r.UnseenCombos)
	fmt.Fprintf(w, "  realistic (cheatsheet) data:         %5.1f%% (paper: ~40%%)\n", r.Realistic)
}

// IFTTTResult reports the Table 2 cleanup-rule activity.
type IFTTTResult struct {
	Descriptions int
	RuleCounts   map[string]int
}

// IFTTTCleanup generates raw applet descriptions and applies the rules.
func IFTTTCleanup(scale genie.Scale, seed int64) IFTTTResult {
	lib := thingpedia.Builtin()
	d := genie.BuildData(lib, nltemplate.DefaultOptions, scale, seed)
	// Prefer compounds with parameter slots so every Table 2 rule has
	// material to act on.
	var compound []dataset.Example
	for _, wantSlots := range []bool{true, false} {
		for i := range d.Synth {
			if len(compound) >= scale.EvalN {
				break
			}
			if !d.Synth[i].Program.IsCompound() {
				continue
			}
			if hasSlotWord(d.Synth[i].Words) == wantSlots {
				compound = append(compound, d.Synth[i])
			}
		}
	}
	raw := ifttt.Generate(compound, seed)
	return IFTTTResult{Descriptions: len(raw), RuleCounts: ifttt.CleanupRuleCounts(raw)}
}

func hasSlotWord(words []string) bool {
	for _, w := range words {
		if len(w) > 7 && w[:7] == "__slot_" {
			return true
		}
	}
	return false
}

// Print renders Table 2 rule activity.
func (r IFTTTResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 2 — IFTTT cleanup rules applied")
	fmt.Fprintf(w, "  descriptions: %d\n", r.Descriptions)
	for _, k := range []string{"second-person", "blank", "ui-text", "under-specified"} {
		fmt.Fprintf(w, "  %-16s %d\n", k, r.RuleCounts[k])
	}
}
