package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// benchDir is where the benchmark's fixtures live relative to the working
// directory: the driver runs from the checkout root, `go test` from bench/.
var benchDir = "bench"

// sample is one utterance of a traffic pool with its gold program (the
// canonical token serialization the parsers are trained to emit).
type sample struct {
	// Class is "primitive" (one function, at most one parameter) or
	// "compound" (two functions, with a filter or a quoted free-form string);
	// empty on session turns.
	Class string `json:"class,omitempty"`
	Words string `json:"words"`
	Gold  string `json:"gold"`
}

// dialogueSample is one synthesized session: the first turn is a complete
// command, each follow-up rewrites the previous turn's program, so its gold
// is only reachable with the previous program as decoding context.
type dialogueSample struct {
	Turns []sample `json:"turns"`
}

// pool is a workload's committed traffic pool. The files under traffic/ were
// drawn once from the synthesizer and the paraphrase simulator (pool seed 7,
// the parsers train on seed 1) and are owned by the benchmark: a change to
// synthesis moves what the parsers are trained on but not what they are asked.
type pool struct {
	singles  map[string][]sample         // by skill
	sessions map[string][]dialogueSample // by skill
}

func readJSONL[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func writeJSONL[T any](path string, rows []T) error {
	var b strings.Builder
	for i := range rows {
		line, err := json.Marshal(rows[i])
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// loadPool reads the traffic pool of a workload, keeping only its class.
func loadPool(w *workload) (*pool, error) {
	p := &pool{singles: map[string][]sample{}, sessions: map[string][]dialogueSample{}}
	for _, skill := range w.skills {
		if w.class == "session" {
			rows, err := readJSONL[dialogueSample](filepath.Join(benchDir, "traffic", skill+".sessions.jsonl"))
			if err != nil {
				return nil, err
			}
			p.sessions[skill] = rows
			// First turns double as the single-turn pool (offline evaluation).
			for _, s := range rows {
				p.singles[skill] = append(p.singles[skill], s.Turns[0])
			}
			continue
		}
		rows, err := readJSONL[sample](filepath.Join(benchDir, "traffic", skill+".jsonl"))
		if err != nil {
			return nil, err
		}
		for _, s := range rows {
			if w.class == "mixed" || s.Class == w.class {
				p.singles[skill] = append(p.singles[skill], s)
			}
		}
	}
	for _, skill := range w.skills {
		if len(p.singles[skill]) == 0 {
			return nil, fmt.Errorf("traffic pool for %s/%s is empty", skill, w.class)
		}
	}
	return p, nil
}

// request is one generated request. Open-loop arrivals carry their due time;
// a follow-up turn is due turnGap after the previous turn's reply and hangs
// off it through next.
type request struct {
	id      int
	dueNS   int64 // offset from phase start; 0 on follow-ups
	skill   string
	session string // X-Genie-Session id, "" for single-turn traffic
	turn    int
	pass    int // which pass over the skill's pool dealt this request
	words   []string
	gold    []string
	next    *request
}

// traffic is a generated request list: arrivals in due order, plus every
// request (arrivals and follow-ups) by id.
type traffic struct {
	arrivals []*request
	all      []*request
	// passes counts, per skill, the complete passes the list made over the
	// skill's pool; a trailing partial pass is not counted.
	passes map[string]int
}

// sessionTurns is the length of every session in the pools.
const sessionTurns = 3

// cycler deals a pool out in shuffled passes: every entry once per pass, so
// any two request lists of similar length ask nearly the same questions and
// program_accuracy_pct moves with the parser's outputs, not with the draw.
type cycler struct {
	rng   *rand.Rand
	n     int
	perm  []int
	pos   int
	dealt int
}

func newCycler(rng *rand.Rand, n int) *cycler { return &cycler{rng: rng, n: n} }

func (c *cycler) next() int {
	if c.pos == len(c.perm) {
		c.perm = c.rng.Perm(c.n)
		c.pos = 0
	}
	i := c.perm[c.pos]
	c.pos++
	c.dealt++
	return i
}

// pass is the pass the entry dealt last belongs to, counted from 0.
func (c *cycler) pass() int { return (c.dealt - 1) / c.n }

// pickSkill draws a skill index from the workload's mix.
func pickSkill(rng *rand.Rand, mix []float64) int {
	u := rng.Float64()
	for i, m := range mix {
		if u < m {
			return i
		}
		u -= m
	}
	return len(mix) - 1
}

// generate draws a request list from the seed: Poisson arrivals over the
// given span, each a pool utterance (or a whole session), at rate requests
// per second (sessions start at rate / turns per second). tag keeps session ids of different phases apart. With rate 0 it
// draws count back-to-back units instead (closed loop), all due at 0.
func generate(w *workload, p *pool, seed int64, tag string, rate float64, seconds float64, count int) *traffic {
	rng := rand.New(rand.NewSource(seed))
	cyc := make([]*cycler, len(w.skills))
	for i, skill := range w.skills {
		n := len(p.singles[skill])
		if w.class == "session" {
			n = len(p.sessions[skill])
		}
		cyc[i] = newCycler(rng, n)
	}
	t := &traffic{}
	add := func(r *request) *request {
		r.id = len(t.all)
		t.all = append(t.all, r)
		return r
	}
	if w.class == "session" {
		rate /= sessionTurns
	}
	now := 0.0
	for unit := 0; ; unit++ {
		if rate > 0 {
			now += rng.ExpFloat64() / rate
			if now >= seconds {
				break
			}
		} else if unit >= count {
			break
		}
		si := pickSkill(rng, w.mix)
		skill := w.skills[si]
		due := int64(now * 1e9)
		if w.class != "session" {
			s := &p.singles[skill][cyc[si].next()]
			t.arrivals = append(t.arrivals, add(&request{dueNS: due, skill: skill, pass: cyc[si].pass(), words: strings.Fields(s.Words), gold: strings.Fields(s.Gold)}))
			continue
		}
		d := &p.sessions[skill][cyc[si].next()]
		id := fmt.Sprintf("%s-%d-%d", tag, seed, unit)
		var prev *request
		for k := range d.Turns {
			r := add(&request{skill: skill, session: id, turn: k, pass: cyc[si].pass(), words: strings.Fields(d.Turns[k].Words), gold: strings.Fields(d.Turns[k].Gold)})
			if prev == nil {
				r.dueNS = due
				t.arrivals = append(t.arrivals, r)
			} else {
				prev.next = r
			}
			prev = r
		}
	}
	t.passes = map[string]int{}
	for i, skill := range w.skills {
		t.passes[skill] = cyc[i].dealt / cyc[i].n
	}
	return t
}

// digest is the SHA-256 of the request list's canonical text form; the
// generator tests pin it per workload.
func (t *traffic) digest() string {
	h := sha256.New()
	for _, r := range t.all {
		fmt.Fprintf(h, "%d\t%d\t%s\t%s\t%d\t%s\t%s\n", r.id, r.dueNS, r.skill, r.session, r.turn, strings.Join(r.words, " "), strings.Join(r.gold, " "))
	}
	return hex.EncodeToString(h.Sum(nil))
}
