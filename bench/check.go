package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/thingtalk"
)

// maxFailedShare is the share of requests sent that may fail before the run
// is reported incorrect.
const maxFailedShare = 0.01

// verdict is what the output check found about one reply.
type verdict struct {
	wellFormed bool // parses and typechecks against the skill's schemas
	match      bool // equal to gold after canonicalization
}

// checker runs the output check over every reply of a run and keeps the
// failure accounting: each successful reply must parse and typecheck against
// its skill's schemas, is compared to gold, and must be the same program the
// same utterance (same skill, same context) received anywhere else in the run.
type checker struct {
	schemas map[string]thingtalk.SchemaSource
	gold    map[string]*thingtalk.Program // parsed gold, by token string
	seen    map[string]string             // skill, utterance, context -> reply
	cache   map[string]verdict            // skill, reply, gold -> verdict

	sent, failed, malformed int
	nondeterministic        int      // utterances that received two different programs
	badGold                 int      // gold programs of the pool that do not parse
	problems                []string // the first few findings, for the report
}

func newChecker(schemas map[string]thingtalk.SchemaSource) *checker {
	return &checker{schemas: schemas, gold: map[string]*thingtalk.Program{}, seen: map[string]string{}, cache: map[string]verdict{}}
}

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// judge checks one successful reply against its request.
func (c *checker) judge(r *result) verdict {
	schemas := c.schemas[r.req.skill]
	reply := strings.Join(r.tokens, " ")
	goldKey := strings.Join(r.req.gold, " ")

	same := r.req.skill + "\x00" + strings.Join(r.req.words, " ") + "\x00" + strings.Join(r.prior, " ")
	if prev, ok := c.seen[same]; ok && prev != reply {
		c.nondeterministic++
		c.problem("nondeterministic: %q (context %q) parsed to %q and to %q", strings.Join(r.req.words, " "), strings.Join(r.prior, " "), prev, reply)
	}
	c.seen[same] = reply

	key := r.req.skill + "\x00" + reply + "\x00" + goldKey
	if v, ok := c.cache[key]; ok {
		return v
	}
	var v verdict
	prog, err := thingtalk.ParseTokens(r.tokens, thingtalk.ParseOptions{Schemas: schemas})
	if err == nil {
		err = thingtalk.Typecheck(prog, schemas)
	}
	if err != nil {
		c.problem("malformed reply to %q: %q: %v", strings.Join(r.req.words, " "), reply, err)
	} else {
		v.wellFormed = true
		gold, ok := c.gold[goldKey]
		if !ok {
			if gold, err = thingtalk.ParseTokens(r.req.gold, thingtalk.ParseOptions{Schemas: schemas}); err != nil {
				c.badGold++
				c.problem("gold program %q does not parse: %v", goldKey, err)
			}
			c.gold[goldKey] = gold
		}
		v.match = gold != nil && thingtalk.SameProgram(thingtalk.Canonicalize(prog, schemas), gold, schemas)
	}
	c.cache[key] = v
	return v
}

// phaseReport is the accounting of one load phase.
type phaseReport struct {
	sent, succeeded, failed int
	matched                 int // successful, well-formed and equal to gold
}

// account runs the check over one phase and prints its sent / succeeded /
// failed line.
func (c *checker) account(out io.Writer, name string, s *loadStats) phaseReport {
	var p phaseReport
	for i := range s.results {
		r := &s.results[i]
		p.sent++
		if r.err != nil {
			p.failed++
			c.problem("%s: request failed: %v", name, r.err)
			continue
		}
		p.succeeded++
		v := c.judge(r)
		if !v.wellFormed {
			c.malformed++
			continue
		}
		if v.match {
			p.matched++
		}
	}
	c.sent += p.sent
	c.failed += p.failed
	fmt.Fprintf(out, "phase %-12s sent %d  succeeded %d  failed %d  skipped %d\n", name, p.sent, p.succeeded, p.failed, s.skipped)
	return p
}

// correct reports whether the run's outputs passed: no malformed reply, no
// utterance with two different programs, at most 1% of requests failed.
func (c *checker) correct() bool {
	return c.malformed == 0 && c.nondeterministic == 0 && c.badGold == 0 && float64(c.failed) <= maxFailedShare*float64(c.sent)
}
