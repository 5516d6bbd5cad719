package main

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

func lightsChecker(t *testing.T) *checker {
	t.Helper()
	lib, err := thingpedia.LoadLibraryFile(filepath.Join("skills", "home", "io.home.lights.tt"))
	if err != nil {
		t.Fatal(err)
	}
	return newChecker(map[string]thingtalk.SchemaSource{"io.home.lights": lib})
}

func reply(words, gold, tokens string, prior string, err error) result {
	now := time.Now()
	return result{
		req:   &request{skill: "io.home.lights", words: strings.Fields(words), gold: strings.Fields(gold)},
		prior: strings.Fields(prior),
		due:   now, sent: now, done: now.Add(time.Millisecond),
		tokens: strings.Fields(tokens), err: err,
	}
}

const (
	lightsOn  = "now => @io.home.lights.set_power param:power:Enum(on,off) = enum:on"
	lightsOff = "now => @io.home.lights.set_power param:power:Enum(on,off) = enum:off"
)

func TestCheckerAccounting(t *testing.T) {
	c := lightsChecker(t)
	p := c.account(io.Discard, "phase", &loadStats{results: []result{
		reply("turn on the lights", lightsOn, lightsOn, "", nil),
		reply("turn off the lights", lightsOff, lightsOn, "", nil), // well-formed, wrong
		reply("dim the lights", lightsOn, "", "", errors.New("429")),
	}})
	if p.sent != 3 || p.succeeded != 2 || p.failed != 1 || p.matched != 1 {
		t.Errorf("accounting %+v", p)
	}
	if c.correct() {
		t.Error("a third of the requests failed and the run still counts as correct")
	}
	c = lightsChecker(t)
	var rs []result
	for i := 0; i < 200; i++ {
		rs = append(rs, reply("turn on the lights", lightsOn, lightsOn, "", nil))
	}
	rs[7].err = errors.New("timeout")
	c.account(io.Discard, "phase", &loadStats{results: rs})
	if !c.correct() {
		t.Errorf("one failure in 200 requests is within the 1%% allowance: %v", c.problems)
	}
}

func TestCheckerRejectsMalformedReplies(t *testing.T) {
	for _, bad := range []string{
		"now => @io.home.lights.set_power param:power:Enum(on,off) =",        // does not parse
		"now => @io.home.lights.set_power param:brightness:Number = enum:on", // does not typecheck
		"now => @io.home.nosuch.thing => notify",                             // unknown function
	} {
		c := lightsChecker(t)
		c.account(io.Discard, "phase", &loadStats{results: []result{reply("turn on the lights", lightsOn, bad, "", nil)}})
		if c.malformed != 1 || c.correct() {
			t.Errorf("reply %q passed the output check", bad)
		}
	}
}

func TestCheckerRejectsTwoProgramsForOneUtterance(t *testing.T) {
	c := lightsChecker(t)
	c.account(io.Discard, "a", &loadStats{results: []result{reply("turn on the lights", lightsOn, lightsOn, "", nil)}})
	// Another context is another input: a different program is fine.
	c.account(io.Discard, "b", &loadStats{results: []result{reply("turn on the lights", lightsOn, lightsOff, lightsOff, nil)}})
	if !c.correct() {
		t.Fatalf("same utterance under another context must be allowed to differ: %v", c.problems)
	}
	c.account(io.Discard, "c", &loadStats{results: []result{reply("turn on the lights", lightsOn, lightsOff, "", nil)}})
	if c.nondeterministic != 1 || c.correct() {
		t.Error("the same utterance received two programs in one run and the run still counts as correct")
	}
}

func TestPoolsAreWellFormed(t *testing.T) {
	for _, w := range workloads {
		p, err := loadPool(w)
		if err != nil {
			t.Fatal(err)
		}
		libs := map[string]*thingpedia.Library{}
		for _, skill := range w.skills {
			lib, err := thingpedia.LoadLibraryFile(filepath.Join("skills", w.libDir, skill+".tt"))
			if err != nil {
				t.Fatal(err)
			}
			libs[skill] = lib
		}
		check := func(skill string, s sample) {
			prog, err := thingtalk.ParseTokens(strings.Fields(s.Gold), thingtalk.ParseOptions{Schemas: libs[skill]})
			if err == nil {
				err = thingtalk.Typecheck(prog, libs[skill])
			}
			if err != nil {
				t.Errorf("%s pool: gold %q: %v", skill, s.Gold, err)
			}
		}
		for _, skill := range w.skills {
			for _, s := range p.singles[skill] {
				check(skill, s)
			}
			for _, d := range p.sessions[skill] {
				if len(d.Turns) != sessionTurns {
					t.Errorf("%s pool: session of %d turns", skill, len(d.Turns))
				}
				for _, s := range d.Turns {
					check(skill, s)
				}
			}
		}
	}
	if lib, err := thingpedia.LoadLibraryFile(filepath.Join("skills", "assistant", "assistant.tt")); err != nil {
		t.Fatal(err)
	} else if n := len(lib.Classes()); n < 6 {
		t.Errorf("assistant.tt has %d classes, want at least 6", n)
	}
}
