package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/dialogue"
	"repro/internal/genie"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// poolSeed seeds the one-off draw of the committed traffic pools; it differs
// from trainSeed, so sentences and parameter values are not the training set's.
const poolSeed = 7

// Pool sizes: large enough that one shuffled pass is a few seconds of traffic.
const (
	poolPerClass    = 300
	poolSessions    = 120
	compoundMinGold = 12 // tokens; drops the short compounds
)

func countPrefix(toks []string, prefix string) int {
	n := 0
	for _, t := range toks {
		if strings.HasPrefix(t, prefix) {
			n++
		}
	}
	return n
}

func hasToken(toks []string, want string) bool {
	for _, t := range toks {
		if t == want {
			return true
		}
	}
	return false
}

// classify assigns a pool class to an instantiated example, or "" when the
// example belongs to neither traffic class.
func classify(e *dataset.Example, gold []string) string {
	fns := len(e.Program.Functions())
	switch {
	case fns == 1 && !e.Program.IsCompound() && countPrefix(gold, "param:") <= 1:
		return "primitive"
	case fns >= 2 && len(gold) >= compoundMinGold && (hasToken(gold, "filter") || hasToken(gold, `"`)):
		return "compound"
	}
	return ""
}

// instantiated draws the candidate utterances of one library: synthesized
// sentences and simulated paraphrases with parameter values filled in.
func instantiated(lib *thingpedia.Library, scale genie.Scale, rng *rand.Rand) []dataset.Example {
	d := genie.BuildData(lib, nltemplate.DefaultOptions, scale, poolSeed)
	src := append(append([]dataset.Example{}, d.Synth...), d.Paraphrases...)
	rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	seen := map[string]bool{}
	var out []dataset.Example
	for i := range src {
		inst, ok := genie.InstantiateExample(d, &src[i], rng)
		if !ok || seen[inst.Sentence()] {
			continue
		}
		if thingtalk.Typecheck(inst.Program, lib) != nil {
			continue
		}
		seen[inst.Sentence()] = true
		out = append(out, inst)
	}
	return out
}

// genTraffic regenerates the committed pools under traffic/. It is run by
// hand (`go run ./bench -gen-traffic`) when the fixtures are to be redrawn;
// benchmark runs only read the files.
func genTraffic() error {
	dir := filepath.Join(benchDir, "traffic")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	enc := thingtalk.EncodeOptions{TypeAnnotations: true}

	lib, err := thingpedia.LoadLibraryFile(filepath.Join(benchDir, "skills", "assistant", "assistant.tt"))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(poolSeed))
	byClass := map[string][]sample{}
	for _, e := range instantiated(lib, genie.Unit, rng) {
		gold := e.Program.Encode(enc)
		if c := classify(&e, gold); c != "" && len(byClass[c]) < poolPerClass {
			byClass[c] = append(byClass[c], sample{Class: c, Words: e.Sentence(), Gold: strings.Join(gold, " ")})
		}
	}
	rows := append(byClass["primitive"], byClass["compound"]...)
	if err := writeJSONL(filepath.Join(dir, "assistant.jsonl"), rows); err != nil {
		return err
	}
	fmt.Printf("assistant: %d primitive, %d compound\n", len(byClass["primitive"]), len(byClass["compound"]))

	for _, skill := range []string{"io.home.lights", "io.home.coffee"} {
		lib, err := thingpedia.LoadLibraryFile(filepath.Join(benchDir, "skills", "home", skill+".tt"))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(poolSeed))
		seeds := instantiated(lib, genie.Unit, rng)
		sessions := dialogue.Synthesize(seeds, dialogue.Config{Seed: poolSeed, Turns: sessionTurns, Schemas: lib, Encode: thingtalk.EncodeOptions{TypeAnnotations: true, Schemas: lib}})
		var out []dialogueSample
		for _, s := range sessions {
			if len(s.Turns) != sessionTurns || len(out) >= poolSessions {
				continue
			}
			var d dialogueSample
			for _, t := range s.Turns {
				d.Turns = append(d.Turns, sample{Words: strings.Join(t.Words, " "), Gold: strings.Join(t.Target, " ")})
			}
			out = append(out, d)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		if err := writeJSONL(filepath.Join(dir, skill+".sessions.jsonl"), out); err != nil {
			return err
		}
		fmt.Printf("%s: %d sessions\n", skill, len(out))
	}
	return nil
}
