// Package paraphrase simulates the crowdsourced paraphrasing stage of
// Section 3.2. Real Genie posts batches to Amazon Mechanical Turk; this
// substitute models the properties training depends on — linguistic variety
// with preserved semantics, plus a worker error model — and implements
// Genie's quality heuristics that discard obvious mistakes.
package paraphrase

import (
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/thingpedia"
)

// The simulated batch follows the paper's design: each synthesized sentence
// is shown to several workers, and each worker writes two paraphrases (one
// yields minimal edits, three exhausts workers).
const (
	workersPerSentence = 3
	perWorker          = 2
)

// Config controls the simulated crowdsourcing batch.
type Config struct {
	// ErrorRate is the probability a worker produces a wrong paraphrase.
	// Production runs 0: every caller passes only Seed, so only tests
	// exercise the error model.
	ErrorRate float64
	// Seed makes the batch deterministic.
	Seed int64
}

// Result is the outcome of a batch.
type Result struct {
	Paraphrases []dataset.Example
	// Pairs holds (source words, paraphrase words) for novelty statistics.
	Pairs [][2][]string
	// Discarded counts paraphrases rejected by the quality heuristics.
	Discarded int
}

// Simulate runs a crowdsourcing batch over the selected examples.
func Simulate(examples []dataset.Example, cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res Result
	for i := range examples {
		src := &examples[i]
		for w := 0; w < workersPerSentence; w++ {
			worker := newWorker(rng)
			for k := 0; k < perWorker; k++ {
				words := worker.rewrite(src.Words, rng)
				if rng.Float64() < cfg.ErrorRate {
					words = injectError(words, rng)
				}
				if !Acceptable(src.Words, words) {
					res.Discarded++
					continue
				}
				p := src.Clone()
				p.Words = words
				p.Group = dataset.GroupParaphrase
				res.Paraphrases = append(res.Paraphrases, p)
				res.Pairs = append(res.Pairs, [2][]string{src.Words, words})
			}
		}
	}
	return res
}

// Acceptable implements Genie's quality heuristics: parameter slots must be
// preserved exactly, the length must stay within a plausible ratio, and the
// paraphrase must differ from the source.
func Acceptable(src, para []string) bool {
	if len(para) == 0 {
		return false
	}
	if strings.Join(src, " ") == strings.Join(para, " ") {
		return false
	}
	if countSlots(src) != countSlots(para) {
		return false
	}
	for slot, n := range slotCounts(src) {
		if slotCounts(para)[slot] != n {
			return false
		}
	}
	ratio := float64(len(para)) / float64(len(src))
	return ratio >= 0.4 && ratio <= 2.5
}

func countSlots(words []string) int {
	n := 0
	for _, w := range words {
		if strings.HasPrefix(w, "__slot_") {
			n++
		}
	}
	return n
}

func slotCounts(words []string) map[string]int {
	out := map[string]int{}
	for _, w := range words {
		if strings.HasPrefix(w, "__slot_") {
			out[w]++
		}
	}
	return out
}

// SelectForParaphrase picks which synthesized sentences to send to workers
// (Section 3.2): every primitive gets a chance, and compound commands are
// preferred when they involve at least one easy-to-understand skill, since
// combining easy functions with difficult ones maximizes paraphrase
// success.
func SelectForParaphrase(examples []dataset.Example, lib *thingpedia.Library, maxN int, rng *rand.Rand) []dataset.Example {
	var prims, easyCompound, hardCompound []int
	for i := range examples {
		p := examples[i].Program
		if !p.IsCompound() {
			prims = append(prims, i)
			continue
		}
		easy := false
		for _, skill := range p.Skills() {
			if c, ok := lib.Class(skill); ok && c.Easy {
				easy = true
				break
			}
		}
		if easy {
			easyCompound = append(easyCompound, i)
		} else {
			hardCompound = append(hardCompound, i)
		}
	}
	// Budget: half primitives, 40% easy compounds, 10% hard compounds.
	var out []dataset.Example
	take := func(idx []int, n int) {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if n > len(idx) {
			n = len(idx)
		}
		for _, i := range idx[:n] {
			out = append(out, examples[i])
		}
	}
	take(prims, maxN/2)
	take(easyCompound, maxN*4/10)
	take(hardCompound, maxN/10)
	return out
}

// --- Worker model --------------------------------------------------------------

// worker is one simulated crowdworker with a sampled personal style.
type worker struct {
	polite   bool
	casual   bool
	reorders bool
	drops    bool
}

func newWorker(rng *rand.Rand) worker {
	return worker{
		polite:   rng.Intn(3) == 0,
		casual:   rng.Intn(3) == 0,
		reorders: rng.Intn(2) == 0,
		drops:    rng.Intn(3) == 0,
	}
}

// rewrite produces one paraphrase of the sentence.
func (w worker) rewrite(words []string, rng *rand.Rand) []string {
	out := append([]string(nil), words...)
	out = substitute(out, rng, 1+rng.Intn(3))
	if w.reorders {
		out = reorderWhenClause(out)
	}
	if w.drops {
		out = dropFunctionWords(out, rng)
	}
	if w.polite {
		out = append([]string{pick(rng, politePrefixes)}, out...)
		out = flatten(out)
	}
	if w.casual && rng.Intn(2) == 0 {
		out = append(out, strings.Fields(pick(rng, casualSuffixes))...)
	}
	return out
}

// substitute applies up to n human-style lexical substitutions.
func substitute(words []string, rng *rand.Rand, n int) []string {
	out := append([]string(nil), words...)
	for k := 0; k < n; k++ {
		positions := rng.Perm(len(out))
		for _, i := range positions {
			choices := humanTable[out[i]]
			if len(choices) == 0 {
				continue
			}
			repl := strings.Fields(choices[rng.Intn(len(choices))])
			next := append([]string(nil), out[:i]...)
			next = append(next, repl...)
			next = append(next, out[i+1:]...)
			out = next
			break
		}
	}
	return out
}

// reorderWhenClause swaps "<action> when <event>" and "when <event> ,
// <action>" forms.
func reorderWhenClause(words []string) []string {
	joined := strings.Join(words, " ")
	if strings.HasPrefix(joined, "when ") {
		if i := indexOf(words, ","); i > 0 && i < len(words)-1 {
			out := append([]string(nil), words[i+1:]...)
			out = append(out, words[:i]...)
			return out
		}
		return words
	}
	if i := indexOf(words, "when"); i > 0 {
		out := append([]string(nil), words[i:]...)
		out = append(out, ",")
		out = append(out, words[:i]...)
		return out
	}
	return words
}

func dropFunctionWords(words []string, rng *rand.Rand) []string {
	out := make([]string, 0, len(words))
	dropped := false
	for _, w := range words {
		if !dropped && (w == "the" || w == "a" || w == "my") && rng.Intn(2) == 0 {
			dropped = true
			continue
		}
		out = append(out, w)
	}
	return out
}

// injectError models careless workers: dropping a parameter, corrupting a
// word, or returning a truncation. Most such outputs are caught by the
// quality heuristics.
func injectError(words []string, rng *rand.Rand) []string {
	out := append([]string(nil), words...)
	switch rng.Intn(3) {
	case 0: // drop a slot
		for i, w := range out {
			if strings.HasPrefix(w, "__slot_") {
				return append(out[:i], out[i+1:]...)
			}
		}
	case 1: // truncate hard
		if len(out) > 3 {
			return out[:len(out)/3]
		}
	default: // substitute a content word with noise
		i := rng.Intn(len(out))
		if !strings.HasPrefix(out[i], "__slot_") {
			out[i] = pick(rng, noiseWords)
		}
	}
	return out
}

func indexOf(words []string, w string) int {
	for i, x := range words {
		if x == w {
			return i
		}
	}
	return -1
}

func flatten(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		out = append(out, strings.Fields(w)...)
	}
	return out
}

func pick(rng *rand.Rand, list []string) string { return list[rng.Intn(len(list))] }

var politePrefixes = []string{"please", "hey ,", "can you", "i would like you to", "could you"}

var casualSuffixes = []string{"for me", "thanks", "right away", "ok"}

var noiseWords = []string{"banana", "whatever", "thing", "stuff", "asap"}

// humanTable is the crowd's lexicon: partly overlapping PPDB, partly its
// own colloquialisms.
var humanTable = map[string][]string{
	"get":         {"give me", "i want", "grab", "fetch", "pull up", "show"},
	"show":        {"show", "display", "give"},
	"list":        {"list out", "enumerate", "show all"},
	"tell":        {"let", "inform"},
	"notify":      {"ping", "warn", "tell"},
	"me":          {"me"},
	"when":        {"whenever", "every time", "as soon as", "the moment", "if"},
	"changes":     {"change", "is updated", "gets updated"},
	"send":        {"shoot", "fire off", "send out"},
	"post":        {"share", "put", "publish"},
	"picture":     {"photo", "pic", "snap", "image"},
	"pictures":    {"photos", "pics", "images"},
	"tweet":       {"tweet out", "post on twitter"},
	"tweets":      {"twitter posts", "posts"},
	"email":       {"mail", "e-mail"},
	"emails":      {"mail", "messages"},
	"message":     {"msg", "text", "note"},
	"messages":    {"msgs", "texts"},
	"file":        {"document", "doc"},
	"files":       {"documents", "docs"},
	"folder":      {"directory"},
	"song":        {"track", "tune", "jam"},
	"songs":       {"tracks", "tunes"},
	"play":        {"put on", "throw on", "start"},
	"music":       {"tunes"},
	"weather":     {"forecast", "weather report"},
	"articles":    {"stories", "news", "headlines"},
	"video":       {"clip", "vid"},
	"videos":      {"clips", "vids"},
	"new":         {"fresh", "recent", "latest"},
	"latest":      {"newest", "most recent"},
	"every":       {"each", "once every"},
	"find":        {"look up", "search", "dig up"},
	"make":        {"create", "set up"},
	"turn":        {"switch", "flip"},
	"add":         {"put", "stick", "throw"},
	"remind":      {"nudge", "tell"},
	"temperature": {"temp"},
	"lights":      {"lamps", "bulbs"},
	"bigger":      {"larger"},
	"greater":     {"more", "higher"},
	"less":        {"lower", "smaller"},
	"house":       {"home", "place"},
	"receive":     {"get"},
	"upload":      {"put up", "post"},
	"delete":      {"remove", "trash", "get rid of"},
	"start":       {"kick off", "begin", "fire up"},
	"stop":        {"halt", "kill"},
	"check":       {"look at", "peek at"},
	"want":        {"would like", "need"},
	"posts":       {"updates"},
	"channel":     {"chat", "room"},
	"front":       {"main"},
	"page":        {"page"},
	"morning":     {"am", "morning"},
	"day":         {"morning", "day"},
}
