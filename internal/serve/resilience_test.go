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
		b.ParseCtx(context.Background(), []string{"tweet", "alpha", "now"})
	}()
	waitFor(t, "first decode to start", func() bool { return sp.calls.Load() == 1 })

	// Queue a request whose budget expires while it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.ParseCtx(ctx, []string{"tweet", "bravo", "now"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline ParseCtx: err = %v, want DeadlineExceeded", err)
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
		srv.Batcher().ParseCtx(context.Background(), []string{"tweet", "alpha", "now"})
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
		b.ParseCtx(context.Background(), []string{"hold"})
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
			_, errs[i] = b.ParseCtx(context.Background(), words[i])
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
	if _, err := b.ParseCtx(context.Background(), []string{"tweet", "delta", "now"}); err != nil {
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

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0.25", 250 * time.Millisecond},
		{"garbage", 0},
		{"-1", 0},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(c.in); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form: a date in the future parses to a positive wait.
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := ParseRetryAfter(future); got <= 0 || got > 3*time.Second {
		t.Errorf("ParseRetryAfter(%q) = %v, want in (0, 3s]", future, got)
	}
}

// TestClientStatusError checks that non-2xx replies surface as typed
// *StatusError with the status and parsed Retry-After, and that 429 still
// matches ErrOverloaded through errors.Is.
func TestClientStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1.5")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	_, err := NewClient(ts.URL).ParseWords(context.Background(), []string{"x"})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *StatusError", err, err)
	}
	if se.Status != http.StatusTooManyRequests {
		t.Errorf("Status = %d, want 429", se.Status)
	}
	if se.RetryAfter != 1500*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 1.5s", se.RetryAfter)
	}
	if se.Msg != "queue full" {
		t.Errorf("Msg = %q, want %q", se.Msg, "queue full")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("errors.Is(err, ErrOverloaded) = false for a 429, want true")
	}
}

// TestClientRetryRecovers sheds the first two attempts and answers the
// third: an armed client must succeed transparently.
func TestClientRetryRecovers(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0.01")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		WriteJSON(w, ParseResponse{Tokens: []string{"now", "=>", "notify"}, Program: "now => notify"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL).WithRetry(RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, Seed: 42})
	toks, err := c.ParseWords(context.Background(), []string{"tweet", "alpha", "now"})
	if err != nil {
		t.Fatalf("ParseWords with retry: %v", err)
	}
	if strings.Join(toks, " ") != "now => notify" {
		t.Errorf("tokens = %v", toks)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
}

// TestClientRetryBudgetBounded: retries never sleep past the context
// deadline, and non-temporary statuses are not retried at all.
func TestClientRetryBudgetBounded(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := NewClient(ts.URL).WithRetry(RetryPolicy{MaxRetries: 10, BaseBackoff: 50 * time.Millisecond, Seed: 7})
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ParseWords(ctx, []string{"x"})
	if err == nil {
		t.Fatal("want error from an always-503 server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop overran the deadline budget: %v", elapsed)
	}
	if n := attempts.Load(); n >= 10 {
		t.Errorf("attempts = %d, want far fewer than MaxRetries+1 under an 80ms budget", n)
	}

	// A terminal status is not retried.
	attempts.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "no such skill", http.StatusNotFound)
	}))
	defer ts2.Close()
	c2 := NewClient(ts2.URL).WithRetry(RetryPolicy{MaxRetries: 5, BaseBackoff: time.Millisecond})
	_, err = c2.ParseWords(context.Background(), []string{"x"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want *StatusError 404", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("attempts on 404 = %d, want 1 (not retryable)", n)
	}
}
