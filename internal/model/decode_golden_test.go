package model

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/thingtalk"
)

// The decode golden pins every decode trajectory — greedy / beam 3 /
// adaptive, plain / contextual, row / lockstep batch, masked / unmasked — to
// the tokens and score bits recorded at the commit before the decode paths
// were folded into Parser.Decode. Regenerate (only after an intentional
// numerics change) with
//
//	go test ./internal/model -run TestDecodeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/decode_golden.json")

// goldenOut is one decoded row: the tokens space-joined, and Score as the
// hex of math.Float64bits, empty where the recording entry point reported no
// score.
type goldenOut struct {
	Tokens    string `json:"tokens"`
	Score     string `json:"score,omitempty"`
	Escalated bool   `json:"escalated,omitempty"`
}

type goldenFile struct {
	// Thresholds holds, per parser variant, the calibration threshold (score
	// bits) the adaptive entries were recorded under: the median greedy score
	// of the variant's rows, so some rows escalate and some do not.
	Thresholds map[string]string      `json:"thresholds"`
	Entries    map[string][]goldenOut `json:"entries"`
}

func scoreBits(s float64) string { return strconv.FormatUint(math.Float64bits(s), 16) }

// goldenDecode decodes rows under one policy. batch selects the lockstep
// batched path over the whole window (else every row decodes on its own).
func goldenDecode(p *Parser, rows []Row, beam int, adaptive, batch bool) []goldenOut {
	pol := Policy{Beam: beam, Adaptive: adaptive}
	var decoded []Decoded
	if batch {
		decoded = p.Decode(rows, pol)
	} else {
		for _, r := range rows {
			decoded = append(decoded, p.Decode([]Row{r}, pol)...)
		}
	}
	out := make([]goldenOut, len(decoded))
	for i, d := range decoded {
		out[i] = goldenOut{Tokens: joinTokens(d.Tokens), Score: scoreBits(d.Score), Escalated: d.Escalated}
	}
	return out
}

// toyGrammarSpec is a grammar over the toy task's function selectors. The
// toy programs spell their parameter "param:text" (no type annotation), which
// the automaton cannot place, so the parameter is declared optional and the
// masked toy decode is "now => @fn": short, but every step goes through the
// masked scorers.
func toyGrammarSpec() *grammar.Spec {
	spec := &grammar.Spec{}
	for _, fn := range [][2]string{{"gmail", "send"}, {"notes", "create"}, {"twitter", "post"}} {
		spec.Functions = append(spec.Functions, grammar.SpecFunction{
			Class: fn[0], Name: fn[1], Kind: int(thingtalk.KindAction),
			Params: []grammar.SpecParam{{Name: "text", Type: thingtalk.StringType{}.String(), Dir: int(thingtalk.DirInOpt)}},
		})
	}
	return spec
}

// goldenVariant is one parser under test with its rows and the grammar its
// masked entries decode under.
type goldenVariant struct {
	name string
	p    *Parser
	rows []Row
	spec *grammar.Spec
}

// goldenVariants returns the parsers and their rows: the two trained toy
// parsers, and two randomly-initialized parsers over the builtin library's
// vocabulary (plain and contextual), where the mask does real work over long
// programs. The contextual rows interleave follow-ups (with context) and
// first turns (without), so their windows are mixed windows.
func goldenVariants(t *testing.T) []goldenVariant {
	var toyRows, ctxRows []Row
	for _, s := range batchTestSentences() {
		toyRows = append(toyRows, Row{Words: s})
	}
	// A non-contextual parser ignores a supplied context.
	toyRows = append(toyRows, Row{Words: []string{"email", "kilo", "now"}, Context: []string{"now", "=>", "@gmail.send"}})

	train, val := toyDialoguePairs()
	for i, pr := range append(train[:9:9], val[:6]...) {
		r := Row{Words: pr.Src, Context: pr.Ctx}
		switch i {
		case 1: // ragged: a longer follow-up and a longer context
			r.Words = append(append([]string(nil), r.Words...), "please", "please")
		case 2:
			r.Context = append(append([]string(nil), r.Context...), "on", "monday")
		}
		ctxRows = append(ctxRows, r)
	}
	ctxRows = append(ctxRows,
		Row{Context: []string{"now", "=>", "@gmail.send"}}, // empty sentence
		Row{Words: []string{"also", "note", "it"}, Context: []string{"now", "=>", "@twitter.post", "param:text", "=", `"`, "zulu", `"`}},
		Row{Words: []string{"tweet", "zulu"}},
	)

	_, spec, progs, vocab := grammarFixture(t)
	gram := newGrammarParser(t, 31)
	cfg := gram.cfg
	cfg.Contextual = true
	gramCtx := newParser(cfg, gram.src, newVocabFromTokens(vocab), rand.New(rand.NewSource(cfg.Seed)))
	rng := rand.New(rand.NewSource(23))
	var gramRows, gramCtxRows []Row
	for i := 0; i < 10; i++ {
		words := randomUtterance(rng)
		if i == 4 {
			words = nil
		}
		gramRows = append(gramRows, Row{Words: words})
		r := Row{Words: words}
		if i%3 != 2 {
			prog := progs[rng.Intn(len(progs))]
			r.Context = prog[:min(len(prog), 6+rng.Intn(8))]
		}
		gramCtxRows = append(gramCtxRows, r)
	}
	return []goldenVariant{
		{"toy", trainedToyParser(), toyRows, toyGrammarSpec()},
		{"ctx", trainedCtxToyParser(), ctxRows, toyGrammarSpec()},
		{"gram", gram, gramRows, spec},
		{"gramctx", gramCtx, gramCtxRows, spec},
	}
}

// goldenWindows are the batch shapes: the whole set, a singleton, sliding
// windows of four, and the tail (which holds the empty sentence).
func goldenWindows(n int) [][2]int {
	ws := [][2]int{{0, n}, {2, 3}, {n - 3, n}}
	for lo := 0; lo+4 <= n; lo += 5 {
		ws = append(ws, [2]int{lo, lo + 4})
	}
	return ws
}

func TestDecodeGolden(t *testing.T) {
	path := filepath.Join("testdata", "decode_golden.json")
	want := goldenFile{Thresholds: map[string]string{}, Entries: map[string][]goldenOut{}}
	if !*updateGolden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoding golden: %v", err)
		}
	}
	got := goldenFile{Thresholds: map[string]string{}, Entries: map[string][]goldenOut{}}

	for _, v := range goldenVariants(t) {
		p, rows := v.p, v.rows
		for _, masked := range []bool{false, true} {
			variant := v.name + "/unmasked"
			var spec *grammar.Spec
			if masked {
				variant, spec = v.name+"/masked", v.spec
			}
			if err := p.SetGrammar(spec); err != nil {
				t.Fatalf("%s: SetGrammar: %v", variant, err)
			}
			// The adaptive threshold: recorded at -update, replayed after.
			var thr float64
			if *updateGolden {
				var scores []float64
				for _, o := range goldenDecode(p, rows, 1, false, false) {
					if len(o.Tokens) > 0 {
						bits, _ := strconv.ParseUint(o.Score, 16, 64)
						scores = append(scores, math.Float64frombits(bits))
					}
				}
				sort.Float64s(scores)
				thr = scores[len(scores)/2]
			} else {
				bits, err := strconv.ParseUint(want.Thresholds[variant], 16, 64)
				if err != nil {
					t.Fatalf("%s: golden threshold: %v", variant, err)
				}
				thr = math.Float64frombits(bits)
			}
			got.Thresholds[variant] = scoreBits(thr)

			for _, pol := range []struct {
				name     string
				beam     int
				adaptive bool
			}{{"greedy", 1, false}, {"beam3", 3, false}, {"adaptive3", 3, true}} {
				p.SetCalibration(Calibration{Fitted: pol.adaptive, Threshold: thr})
				key := variant + "/" + pol.name
				got.Entries[key+"/row"] = goldenDecode(p, rows, pol.beam, pol.adaptive, false)
				for _, w := range goldenWindows(len(rows)) {
					got.Entries[fmt.Sprintf("%s/batch[%d:%d]", key, w[0], w[1])] = goldenDecode(p, rows[w[0]:w[1]], pol.beam, pol.adaptive, true)
				}
				if !pol.adaptive {
					checkGoldenWrappers(t, key, p, rows, pol.beam, got.Entries[key+"/row"])
				}
			}
		}
		// The toy parsers are shared with the other tests.
		p.SetCalibration(Calibration{})
		p.SetGrammar(nil)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got.Entries))
		return
	}

	if len(got.Entries) != len(want.Entries) {
		t.Errorf("golden has %d entries, this run produced %d", len(want.Entries), len(got.Entries))
	}
	bitExact := runtime.GOARCH == "amd64"
	escalated, stayed := 0, 0
	for key, wantRows := range want.Entries {
		gotRows, ok := got.Entries[key]
		if !ok || len(gotRows) != len(wantRows) {
			t.Errorf("%s: golden has %d rows, this run %d", key, len(wantRows), len(gotRows))
			continue
		}
		for i, w := range wantRows {
			g := gotRows[i]
			if g.Tokens != w.Tokens {
				t.Errorf("%s row %d: tokens %q, golden %q", key, i, g.Tokens, w.Tokens)
			}
			if bitExact && w.Score != "" && g.Score != w.Score {
				t.Errorf("%s row %d: score bits %s, golden %s", key, i, g.Score, w.Score)
			}
			if g.Escalated != w.Escalated {
				t.Errorf("%s row %d: escalated %v, golden %v", key, i, g.Escalated, w.Escalated)
			}
			if w.Escalated {
				escalated++
			} else if len(w.Tokens) > 0 && strings.Contains(key, "/adaptive3/") {
				stayed++
			}
		}
	}
	if escalated == 0 || stayed == 0 {
		t.Errorf("golden is vacuous for the adaptive policy: %d rows escalated, %d stayed greedy", escalated, stayed)
	}
	for variant, w := range want.Thresholds {
		if got.Thresholds[variant] != w {
			t.Errorf("%s: threshold %s, golden %s", variant, got.Thresholds[variant], w)
		}
	}
}

// checkGoldenWrappers holds the kept convenience entry points to the rows
// just recorded: Parse / ParseBeam / ParseScored / ParseContext / ParseBatch
// are the same decode.
func checkGoldenWrappers(t *testing.T, key string, p *Parser, rows []Row, beam int, outs []goldenOut) {
	t.Helper()
	var plain [][]string
	var plainOuts []goldenOut
	for i, r := range rows {
		o := outs[i]
		if beam <= 1 {
			if got := p.ParseContext(r.Words, r.Context); joinTokens(got) != o.Tokens {
				t.Errorf("%s row %d: ParseContext = %v, want %v", key, i, got, o.Tokens)
			}
		}
		if len(r.Context) > 0 {
			continue
		}
		plain, plainOuts = append(plain, r.Words), append(plainOuts, o)
		toks, score := p.ParseScored(r.Words, beam)
		if joinTokens(toks) != o.Tokens || scoreBits(score) != o.Score {
			t.Errorf("%s row %d: ParseScored = %v (%s), want %v (%s)", key, i, toks, scoreBits(score), o.Tokens, o.Score)
		}
		if got := p.ParseBeam(r.Words, beam); joinTokens(got) != o.Tokens {
			t.Errorf("%s row %d: ParseBeam = %v, want %v", key, i, got, o.Tokens)
		}
		if beam <= 1 {
			if got := p.Parse(r.Words); joinTokens(got) != o.Tokens {
				t.Errorf("%s row %d: Parse = %v, want %v", key, i, got, o.Tokens)
			}
		}
	}
	if beam <= 1 {
		for i, got := range p.ParseBatch(plain) {
			if joinTokens(got) != plainOuts[i].Tokens {
				t.Errorf("%s plain row %d: ParseBatch = %v, want %v", key, i, got, plainOuts[i].Tokens)
			}
		}
	}
}
