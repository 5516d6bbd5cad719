package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherDeadlineExpiresInQueueNoDecode holds the single worker on a
// blocked decode while a second request's deadline budget runs out in the
// queue: the expired request must be answered with its context error and
// must not cost a decode.
func TestBatcherDeadlineExpiresInQueueNoDecode(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 4)}
	b := NewBatcher(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 8})
	defer b.Close()

	// Occupy the worker.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
	}()
	waitFor(t, "first decode to start", func() bool { return sp.calls.Load() == 1 })

	// Queue a request whose budget expires while it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.ParseContextCtx(ctx, []string{"tweet", "bravo", "now"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline ParseContextCtx: err = %v, want DeadlineExceeded", err)
	}

	// Free the worker; it must answer the expired request without decoding.
	sp.release <- struct{}{}
	<-done
	waitFor(t, "expired request to be answered", func() bool { return b.Stats().Expired == 1 })
	if got := sp.calls.Load(); got != 1 {
		t.Errorf("decode calls = %d, want 1 (no decode spent on the expired request)", got)
	}
}

// TestServerDeadlineHeader408 proves deadline propagation end to end over
// HTTP: a request whose X-Genie-Deadline-Ms budget is shorter than the queue
// wait answers 408 without a decode being spent on it.
func TestServerDeadlineHeader408(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 4)}
	srv := NewServer(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Batcher().ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
	}()
	waitFor(t, "first decode to start", func() bool { return sp.calls.Load() == 1 })

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/parse",
		strings.NewReader(`{"sentence":"tweet bravo now"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "25")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("expired-budget POST /parse status = %d, want 408", resp.StatusCode)
	}

	sp.release <- struct{}{}
	<-done
	waitFor(t, "expired request to be answered", func() bool { return srv.Batcher().Stats().Expired >= 1 })
	if got := sp.calls.Load(); got != 1 {
		t.Errorf("decode calls = %d, want 1 (408 must not cost a decode)", got)
	}
}

// panickyParser panics on the sentinel word, alone or inside a window — the
// poison-pill request that must not take the worker or its window down. A
// decode of the sentinel word "hold" blocks on gate.
type panickyParser struct {
	decodes atomic.Int64
	gate    chan struct{}
}

func (p *panickyParser) decodeOne(words []string) []string {
	p.decodes.Add(1)
	if len(words) > 0 && words[0] == "hold" {
		<-p.gate
	}
	if len(words) > 0 && words[0] == "poison" {
		panic("poisoned input")
	}
	return []string{"now", "=>", "notify"}
}

func (p *panickyParser) Decode(rows []model.Row, _ model.Policy) []model.Decoded {
	out := make([]model.Decoded, len(rows))
	for i, r := range rows {
		out[i].Tokens = p.decodeOne(r.Words)
	}
	return out
}

// TestBatcherPanicIsolation queues a window with one poison-pill request
// behind a held worker: the window's decode panics, the window re-decodes per
// request, the healthy requests answer normally, only the poisoned one
// errors with ErrDecodeFailed, and the worker survives to serve the next
// request.
func TestBatcherPanicIsolation(t *testing.T) {
	pp := &panickyParser{gate: make(chan struct{})}
	b := NewBatcher(pp, Options{MaxBatch: 4, Workers: 1})
	defer b.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.ParseContextCtx(context.Background(), []string{"hold"}, nil)
	}()
	waitFor(t, "the worker to be held", func() bool { return pp.decodes.Load() == 1 })

	words := [][]string{
		{"tweet", "alpha", "now"},
		{"poison", "bravo", "now"},
		{"tweet", "charlie", "now"},
	}
	errs := make([]error, len(words))
	for i := range words {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.ParseContextCtx(context.Background(), words[i], nil)
		}(i)
	}
	waitFor(t, "the window to queue", func() bool { return b.Stats().QueueDepth == int64(len(words))+1 })
	close(pp.gate)
	wg.Wait()
	if st := b.Stats(); st.Batches != 2 || st.BatchSizes[len(words)-1] != 1 {
		t.Fatalf("the queued requests were not pulled as one window: %+v", st)
	}

	for i, err := range errs {
		poisoned := words[i][0] == "poison"
		switch {
		case poisoned && !errors.Is(err, ErrDecodeFailed):
			t.Errorf("poisoned request err = %v, want ErrDecodeFailed", err)
		case !poisoned && err != nil:
			t.Errorf("healthy request %v err = %v, want nil", words[i], err)
		}
	}
	if st := b.Stats(); st.Failed < 1 {
		t.Errorf("Stats.Failed = %d, want >= 1", st.Failed)
	}

	// The worker survived the panic.
	if _, err := b.ParseContextCtx(context.Background(), []string{"tweet", "delta", "now"}, nil); err != nil {
		t.Errorf("request after panic: %v", err)
	}
}

// TestServerPanicAnswers500 checks the HTTP mapping of a recovered decode
// panic.
func TestServerPanicAnswers500(t *testing.T) {
	srv := NewServer(&panickyParser{}, Options{MaxBatch: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Post(ts.URL+"/parse", "application/json",
		strings.NewReader(`{"words":["poison"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("poisoned POST /parse status = %d, want 500", resp.StatusCode)
	}
}
