package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// ctxFakeParser is a contextual parser with fully observable behavior: a
// row without context echoes the words, a row with one prepends the
// context's first token; every score is 0.5.
type ctxFakeParser struct {
	ctxRows atomic.Int64 // rows decoded against a context
}

func plainOut(words []string) []string { return append([]string{"plain"}, words...) }

func ctxOut(words, ctx []string) []string {
	return append([]string{"ctx", ctx[0]}, words...)
}

func (p *ctxFakeParser) Decode(rows []model.Row, _ model.Policy) []model.Decoded {
	out := make([]model.Decoded, len(rows))
	for i, r := range rows {
		out[i] = model.Decoded{Tokens: plainOut(r.Words), Score: 0.5}
		if len(r.Context) > 0 {
			p.ctxRows.Add(1)
			out[i].Tokens = ctxOut(r.Words, r.Context)
		}
	}
	return out
}
func (p *ctxFakeParser) Contextual() bool { return true }

// TestBatcherPartitionsContextWindows sends mixed single-turn and contextual
// traffic through shared windows: each request's context travels with its
// own row (the parser, not the batcher, splits a window by context), and
// every request gets the answer its own context implies.
func TestBatcherPartitionsContextWindows(t *testing.T) {
	p := &ctxFakeParser{}
	b := NewBatcher(p, Options{MaxBatch: 8, Workers: 2, MaxQueue: -1})
	defer b.Close()
	if !b.Contextual() {
		t.Error("Contextual() = false for a contextual parser")
	}

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
	if got := p.ctxRows.Load(); got != n/2 {
		t.Errorf("%d rows decoded against a context, want %d", got, n/2)
	}
	if st := b.Stats(); st.Requests != n || st.Failed != 0 {
		t.Errorf("stats = %+v, want %d requests and no failures", st, n)
	}
}

// plainOnlyParser ignores context and does not report Contextual, like a
// parser trained without the context encoder.
type plainOnlyParser struct{}

func (plainOnlyParser) Decode(rows []model.Row, _ model.Policy) []model.Decoded {
	out := make([]model.Decoded, len(rows))
	for i, r := range rows {
		out[i].Tokens = plainOut(r.Words)
	}
	return out
}

// TestParseContextCtxWithoutSurface: on a parser without a context encoder,
// a context-carrying request decodes single-turn — the serving layer never
// breaks on a pre-contextual snapshot.
func TestParseContextCtxWithoutSurface(t *testing.T) {
	b := NewBatcher(plainOnlyParser{}, Options{MaxBatch: 4, Workers: 1, MaxQueue: -1})
	defer b.Close()
	words := []string{"hello", "world"}
	plain, err := b.ParseContextCtx(context.Background(), words, nil)
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
