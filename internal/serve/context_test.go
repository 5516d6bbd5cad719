package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ctxFakeParser is a contextual decode surface with fully observable
// behavior: plain decodes echo the words, contextual decodes prepend the
// context's first token, and — mirroring *model.Parser's contract — the
// batched contextual calls panic on any row with an empty context, so a
// mis-partitioned window fails loudly.
type ctxFakeParser struct {
	batchCalls    atomic.Int64 // ParseBatch windows
	ctxBatchCalls atomic.Int64 // ParseBatchContext windows
	ctxCalls      atomic.Int64 // per-request contextual decodes
}

func plainOut(words []string) []string { return append([]string{"plain"}, words...) }

func ctxOut(words, ctx []string) []string {
	return append([]string{"ctx", ctx[0]}, words...)
}

func (p *ctxFakeParser) Parse(words []string) []string            { return plainOut(words) }
func (p *ctxFakeParser) ParseBeam(words []string, _ int) []string { return plainOut(words) }
func (p *ctxFakeParser) ParseBatch(sentences [][]string) [][]string {
	p.batchCalls.Add(1)
	out := make([][]string, len(sentences))
	for i, s := range sentences {
		out[i] = plainOut(s)
	}
	return out
}
func (p *ctxFakeParser) ParseBeamBatch(sentences [][]string, _ int) [][]string {
	return p.ParseBatch(sentences)
}
func (p *ctxFakeParser) ParseContext(words, ctx []string) []string {
	if len(ctx) == 0 {
		return plainOut(words)
	}
	p.ctxCalls.Add(1)
	return ctxOut(words, ctx)
}
func (p *ctxFakeParser) ParseContextScored(words, ctx []string, _ int) ([]string, float64) {
	return p.ParseContext(words, ctx), 0.5
}
func (p *ctxFakeParser) ParseBatchContext(sentences, contexts [][]string) [][]string {
	p.ctxBatchCalls.Add(1)
	out := make([][]string, len(sentences))
	for i := range sentences {
		if len(contexts[i]) == 0 {
			panic("serve_test: empty context row reached ParseBatchContext")
		}
		out[i] = ctxOut(sentences[i], contexts[i])
	}
	return out
}
func (p *ctxFakeParser) ParseBatchContextScored(sentences, contexts [][]string) ([][]string, []float64) {
	outs := p.ParseBatchContext(sentences, contexts)
	return outs, make([]float64, len(outs))
}
func (p *ctxFakeParser) Contextual() bool { return true }

// TestBatcherPartitionsContextWindows gathers mixed single-turn and
// contextual traffic into shared windows and checks the partition: plain
// rows decode through the plain batched surface, contextual rows through the
// contextual one (whose model-layer contract panics on empty-context rows),
// and every request gets the answer its own context implies.
func TestBatcherPartitionsContextWindows(t *testing.T) {
	p := &ctxFakeParser{}
	b := NewBatcher(p, Options{MaxBatch: 8, Workers: 2, MaxQueue: -1})
	defer b.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([][]string, n)
	want := make([][]string, n)
	for i := 0; i < n; i++ {
		words := []string{"w", string(rune('a' + i%26))}
		var prior []string
		if i%2 == 1 {
			prior = []string{"prev", string(rune('a' + i%26))}
			want[i] = ctxOut(words, prior)
		} else {
			want[i] = plainOut(words)
		}
		wg.Add(1)
		go func(i int, words, prior []string) {
			defer wg.Done()
			got[i], errs[i] = b.ParseContextCtx(context.Background(), words, prior)
		}(i, words, prior)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if strings.Join(got[i], " ") != strings.Join(want[i], " ") {
			t.Errorf("request %d = %v, want %v", i, got[i], want[i])
		}
	}
	if p.ctxBatchCalls.Load() == 0 && p.ctxCalls.Load() == 0 {
		t.Error("no contextual decode ever ran")
	}
	if st := b.Stats(); st.Requests != n || st.Failed != 0 {
		t.Errorf("stats = %+v, want %d requests and no failures", st, n)
	}
}

// TestParseContextCtxWithoutSurface: on a parser without the contextual
// surfaces, a context-carrying request decodes single-turn — the serving
// layer never breaks on a pre-contextual snapshot.
// plainOnlyParser has no contextual (or batched) surface at all.
type plainOnlyParser struct{}

func (plainOnlyParser) Parse(words []string) []string            { return plainOut(words) }
func (plainOnlyParser) ParseBeam(words []string, _ int) []string { return plainOut(words) }

func TestParseContextCtxWithoutSurface(t *testing.T) {
	b := NewBatcher(plainOnlyParser{}, Options{MaxBatch: 4, Workers: 1, MaxQueue: -1})
	defer b.Close()
	words := []string{"hello", "world"}
	plain, err := b.ParseCtx(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := b.ParseContextCtx(context.Background(), words, []string{"now", "=>", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(plain, " ") != strings.Join(withCtx, " ") {
		t.Errorf("context request diverged on non-contextual parser: %v != %v", withCtx, plain)
	}
	if b.Contextual() {
		t.Error("Contextual() = true for a parser without the surface")
	}
}

// TestParseContextScoredCtx: scored contextual requests flow through the
// contextual scored surface.
func TestParseContextScoredCtx(t *testing.T) {
	p := &ctxFakeParser{}
	b := NewBatcher(p, Options{MaxBatch: 4, Workers: 1, MaxQueue: -1})
	defer b.Close()
	toks, score, err := b.ParseContextScoredCtx(context.Background(), []string{"w"}, []string{"prev"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(toks, " ") != "ctx prev w" || score != 0.5 {
		t.Errorf("scored contextual decode = %v (%v)", toks, score)
	}
	if !b.Contextual() {
		t.Error("Contextual() = false for a contextual parser")
	}
}
