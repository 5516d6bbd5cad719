package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// toyParser trains one small pointer-generator parser shared by all serving
// tests (training dominates; the tests exercise the serving path).
var toy struct {
	once sync.Once
	p    *model.Parser
}

func toyTrainPairs() []model.Pair {
	values := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
		"golf", "hotel", "india", "juliet"}
	verbs := []struct{ nl, fn string }{
		{"tweet", "@twitter.post"},
		{"email", "@gmail.send"},
	}
	var pairs []model.Pair
	for _, v := range values {
		for _, vb := range verbs {
			pairs = append(pairs, model.Pair{
				Src: []string{vb.nl, v, "now"},
				Tgt: []string{"now", "=>", vb.fn, "param:text", "=", `"`, v, `"`},
			})
		}
	}
	return pairs
}

func toyConfig(seed int64) model.Config {
	return model.Config{
		EmbedDim: 24, HiddenDim: 32, LR: 5e-3, Epochs: 25,
		EvalEvery: 100000, PointerGen: true, MaxDecodeLen: 16,
		MinVocabCount: 4, Seed: seed,
	}
}

func toyParser() *model.Parser {
	toy.once.Do(func() {
		toy.p = model.Train(toyTrainPairs(), nil, nil, toyConfig(1))
	})
	return toy.p
}

func testSentences() [][]string {
	var out [][]string
	for _, p := range toyTrainPairs() {
		out = append(out, p.Src)
	}
	return out
}

func TestBatcherMatchesDirectDecode(t *testing.T) {
	p := toyParser()
	// 5 waves × 20 sentences fire concurrently; raise the admission bound
	// above that so this test exercises decode parity, not load shedding.
	b := NewBatcher(p, Options{MaxBatch: 4, MaxQueue: 200})
	defer b.Close()

	sentences := testSentences()
	want := make([]string, len(sentences))
	for i, s := range sentences {
		want[i] = strings.Join(p.Parse(s), " ")
	}

	var wg sync.WaitGroup
	for rep := 0; rep < 5; rep++ {
		for i := range sentences {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := b.ParseContextCtx(context.Background(), sentences[i], nil)
				if err != nil {
					t.Errorf("ParseContextCtx: %v", err)
					return
				}
				if strings.Join(got, " ") != want[i] {
					t.Errorf("batched decode of %v = %q, direct = %q", sentences[i], strings.Join(got, " "), want[i])
				}
			}(i)
		}
	}
	wg.Wait()

	st := b.Stats()
	if st.Requests != int64(5*len(sentences)) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, 5*len(sentences))
	}
	if st.Batches <= 0 || st.Batches > st.Requests {
		t.Errorf("implausible batch count: %+v", st)
	}
}

// recordingBatchParser delegates to the real parser, recording the size of
// every Decode call over more than one row. With a gate, every decode blocks
// until the test closes it, so a test can park the workers, let a backlog
// queue behind them, and observe the windows that form on release.
type recordingBatchParser struct {
	p       *model.Parser
	gate    chan struct{} // non-nil: decodes block until it is closed
	entered atomic.Int64  // decode calls that reached the gate
	mu      sync.Mutex
	windows []int // batched-decode call sizes, in call order
}

func (r *recordingBatchParser) Decode(rows []model.Row, pol model.Policy) []model.Decoded {
	if len(rows) > 1 {
		r.mu.Lock()
		r.windows = append(r.windows, len(rows))
		r.mu.Unlock()
	}
	r.entered.Add(1)
	if r.gate != nil {
		<-r.gate
	}
	return r.p.Decode(rows, pol)
}

// parkWorkers occupies each of the batcher's n workers with one request held
// at rec's gate. Requests go in one at a time: two already queued would be
// pulled as one window by one worker. The returned WaitGroup covers them.
func parkWorkers(t *testing.T, b *Batcher, rec *recordingBatchParser, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
		}()
		waitFor(t, "a worker to reach the gate", func() bool { return rec.entered.Load() == int64(i) })
	}
	return &wg
}

// TestBatcherFormsBatches parks the single worker on a gated decode, queues
// 20 requests behind it, and releases: the backlog must come out as full
// MaxBatch windows plus the remainder (8, 8, 4) with every output equal to
// the per-request decode, and the wait must show up in Stats.QueueWait.
func TestBatcherFormsBatches(t *testing.T) {
	rec := &recordingBatchParser{p: toyParser(), gate: make(chan struct{})}
	b := NewBatcher(rec, Options{MaxBatch: 8, Workers: 1})
	defer b.Close()
	parked := parkWorkers(t, b, rec, 1)
	if st := b.Stats(); st.Batches != 1 || st.BatchSizes[0] != 1 {
		t.Fatalf("idle worker did not pull the lone request at once: %+v", st)
	}

	sentences := testSentences()
	const n = 20
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			toks, _ := b.ParseContextCtx(context.Background(), sentences[i], nil)
			got[i] = strings.Join(toks, " ")
		}(i)
	}
	waitFor(t, "the backlog to queue", func() bool { return b.Stats().QueueDepth == n+1 })
	close(rec.gate)
	wg.Wait()
	parked.Wait()

	for i := 0; i < n; i++ {
		if want := strings.Join(rec.p.Parse(sentences[i]), " "); got[i] != want {
			t.Errorf("windowed decode of %v = %q, per-request = %q", sentences[i], got[i], want)
		}
	}
	st := b.Stats()
	if st.Requests != n+1 || st.Batches != 4 {
		t.Errorf("Requests/Batches = %d/%d, want %d/4", st.Requests, st.Batches, n+1)
	}
	if st.BatchSizes[0] != 1 || st.BatchSizes[3] != 1 || st.BatchSizes[7] != 2 {
		t.Errorf("BatchSizes = %v, want one lone pull, then windows of 8, 8 and 4", st.BatchSizes)
	}
	rec.mu.Lock()
	windows := append([]int(nil), rec.windows...)
	rec.mu.Unlock()
	if len(windows) != 3 || windows[0] != 8 || windows[1] != 8 || windows[2] != 4 {
		t.Errorf("batched decode windows = %v, want [8 8 4]", windows)
	}
	if st.QueueWait <= 0 {
		t.Errorf("Stats.QueueWait = %s behind a parked worker, want > 0", st.QueueWait)
	}
}

// TestBatcherBatchedDecodeParity queues a backlog behind two parked workers,
// releases it, checks every reply against the sequential decode, and asserts
// the batched decode path carried full MaxBatch windows (a backlog of at
// least Workers×MaxBatch fills each worker's first pull). Runs under -race
// in CI.
func TestBatcherBatchedDecodeParity(t *testing.T) {
	for _, beam := range []int{1, 3} {
		rec := &recordingBatchParser{p: toyParser(), gate: make(chan struct{})}
		b := NewBatcher(rec, Options{MaxBatch: 8, Workers: 2, Beam: beam})
		parked := parkWorkers(t, b, rec, 2)

		sentences := testSentences()
		want := make([]string, len(sentences))
		for i, s := range sentences {
			if beam > 1 {
				want[i] = strings.Join(rec.p.ParseBeam(s, beam), " ")
			} else {
				want[i] = strings.Join(rec.p.Parse(s), " ")
			}
		}

		const reps = 2
		var wg sync.WaitGroup
		for rep := 0; rep < reps; rep++ {
			for i := range sentences {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := b.ParseContextCtx(context.Background(), sentences[i], nil)
					if err != nil {
						t.Errorf("beam=%d ParseContextCtx: %v", beam, err)
						return
					}
					if strings.Join(got, " ") != want[i] {
						t.Errorf("beam=%d batched decode of %v = %q, sequential = %q",
							beam, sentences[i], strings.Join(got, " "), want[i])
					}
				}(i)
			}
		}
		backlog := int64(reps * len(sentences))
		waitFor(t, "the backlog to queue", func() bool { return b.Stats().QueueDepth == backlog+2 })
		close(rec.gate)
		wg.Wait()
		parked.Wait()
		b.Close()

		rec.mu.Lock()
		windows := append([]int(nil), rec.windows...)
		rec.mu.Unlock()
		widest, rows := 0, 0
		for _, w := range windows {
			widest = max(widest, w)
			rows += w
		}
		if widest != 8 {
			t.Errorf("beam=%d: widest batched window = %d, want MaxBatch 8 (windows %v)", beam, widest, windows)
		}
		// A window of one is not recorded, so at most one row per worker (its
		// last, partial pull) may be missing from the recorded windows.
		if rows < int(backlog)-2 {
			t.Errorf("beam=%d: batched surface decoded %d of %d backlog rows (windows %v)", beam, rows, backlog, windows)
		}
	}
}

// TestBatcherIdleDispatchesImmediately sends sequential requests to an idle
// batcher over an instant parser: every request is pulled alone the moment
// it arrives, so nothing waits for company — no batch forms, queue wait is a
// sliver of the elapsed time, and the run takes far less than the 0.5 ms a
// request that any gather timer would cost.
func TestBatcherIdleDispatchesImmediately(t *testing.T) {
	b := NewBatcher(&ctxFakeParser{}, Options{})
	defer b.Close()
	const n = 200
	words := []string{"tweet", "alpha", "now"}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := b.ParseContextCtx(context.Background(), words, nil); err != nil {
			t.Fatalf("ParseContextCtx: %v", err)
		}
	}
	elapsed := time.Since(start)
	st := b.Stats()
	if st.Requests != n || st.Batches != n || st.BatchSizes[0] != n {
		t.Errorf("idle batcher batched sequential requests: %+v", st)
	}
	if limit := n * 500 * time.Microsecond; elapsed >= limit {
		t.Errorf("%d sequential requests took %s, want well under %s (no per-request wait)", n, elapsed, limit)
	}
	if st.QueueWait > elapsed {
		t.Errorf("Stats.QueueWait = %s exceeds the %s the run took", st.QueueWait, elapsed)
	}
}

// slowParser blocks each decode until released, so tests can hold requests
// in flight deterministically.
type slowParser struct {
	release chan struct{} // each decode consumes one token
	calls   atomic.Int64
}

func (s *slowParser) Decode(rows []model.Row, _ model.Policy) []model.Decoded {
	out := make([]model.Decoded, len(rows))
	for i := range rows {
		s.calls.Add(1)
		<-s.release
		out[i].Tokens = []string{"now", "=>", "notify"}
	}
	return out
}

// TestBatcherBackpressureSheds fills the admission queue against a blocked
// decoder and checks the overflow request is shed immediately with
// ErrOverloaded — admission must never block behind a full queue — and that
// draining the queue restores admission.
func TestBatcherBackpressureSheds(t *testing.T) {
	sp := &slowParser{release: make(chan struct{})}
	b := NewBatcher(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 2})
	defer b.Close()
	defer close(sp.release) // unblock any decode still waiting at teardown

	ctx := context.Background()
	words := []string{"tweet", "alpha", "now"}
	type res struct {
		toks []string
		err  error
	}
	replies := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			toks, err := b.ParseContextCtx(ctx, words, nil)
			replies <- res{toks, err}
		}()
	}
	// Wait until the queue is fully occupied (2 admitted, 1 decoding).
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if _, err := b.ParseContextCtx(ctx, words, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("shedding took %s; must be immediate", waited)
	}
	if st := b.Stats(); st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}

	// Release the held decodes; both admitted requests must be answered.
	sp.release <- struct{}{}
	sp.release <- struct{}{}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("admitted request errored: %v", r.err)
		}
		if len(r.toks) == 0 {
			t.Fatalf("admitted request got empty reply")
		}
	}
	// Queue drained: admission works again.
	go func() { sp.release <- struct{}{} }()
	if _, err := b.ParseContextCtx(ctx, words, nil); err != nil {
		t.Fatalf("post-drain request: %v", err)
	}
}

// TestBatcherCloseDrainsAdmitted holds requests in the queue, closes the
// batcher, and checks every admitted request still gets its reply (decoded
// on the old parser) — the drain semantics hot reload relies on.
func TestBatcherCloseDrainsAdmitted(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 16)}
	b := NewBatcher(sp, Options{MaxBatch: 2, Workers: 1, MaxQueue: 16})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("requests never queued: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		sp.release <- struct{}{}
	}
	b.Close() // must drain all n admitted requests, then stop
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted request %d dropped during Close: %v", i, err)
		}
	}
	if _, err := b.ParseContextCtx(context.Background(), []string{"x"}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close request: err = %v, want ErrClosed", err)
	}
}

// TestBatcherScoredPath checks ParseScoredCtx returns the parser's own
// scored decode through the batching path.
func TestBatcherScoredPath(t *testing.T) {
	p := toyParser()
	b := NewBatcher(p, Options{MaxBatch: 4})
	defer b.Close()
	words := []string{"tweet", "alpha", "now"}
	wantToks, wantScore := p.ParseScored(words, 1)
	toks, score, err := b.ParseScoredCtx(context.Background(), words)
	if err != nil {
		t.Fatalf("ParseScoredCtx: %v", err)
	}
	if strings.Join(toks, " ") != strings.Join(wantToks, " ") || score != wantScore {
		t.Errorf("scored decode = (%q, %v), direct = (%q, %v)",
			strings.Join(toks, " "), score, strings.Join(wantToks, " "), wantScore)
	}
}

// TestBatcherBatchSizeHistogram drives traffic and checks the dispatch
// histogram accounts for every batch.
func TestBatcherBatchSizeHistogram(t *testing.T) {
	b := NewBatcher(toyParser(), Options{MaxBatch: 8, Workers: 2})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
		}()
	}
	wg.Wait()
	st := b.Stats()
	var total, weighted int64
	for i, n := range st.BatchSizes {
		total += n
		weighted += int64(i+1) * n
	}
	if total != st.Batches || weighted != st.Requests {
		t.Errorf("histogram inconsistent: %d batches / %d requests vs hist %d / %d (%v)",
			st.Batches, st.Requests, total, weighted, st.BatchSizes)
	}
}

func TestBatcherClose(t *testing.T) {
	b := NewBatcher(toyParser(), Options{})
	b.Close()
	if _, err := b.ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("ParseContextCtx after Close: err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestBatcherContextCancel(t *testing.T) {
	b := NewBatcher(toyParser(), Options{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ParseContextCtx(ctx, []string{"tweet", "alpha", "now"}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ParseContextCtx: err = %v, want context.Canceled", err)
	}
}

// postParse POSTs one parse request to a server's /parse and returns the
// reply's status and, on 200, its decoded body.
func postParse(t *testing.T, url string, req ParseRequest) (int, ParseResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ParseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, pr
}

func TestServerAndClientEndToEnd(t *testing.T) {
	p := toyParser()
	srv := NewServer(p, Options{MaxBatch: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	words := []string{"tweet", "alpha", "now"}
	want := strings.Join(p.Parse(words), " ")

	// Pre-tokenized path.
	status, resp := postParse(t, ts.URL, ParseRequest{Words: words})
	if status != http.StatusOK {
		t.Fatalf("words: status %d", status)
	}
	if strings.Join(resp.Tokens, " ") != want || resp.Program != want {
		t.Errorf("served decode = %q (%q), direct = %q", strings.Join(resp.Tokens, " "), resp.Program, want)
	}

	// Raw-sentence path (server-side tokenization lowercases).
	status, resp = postParse(t, ts.URL, ParseRequest{Sentence: "Tweet alpha NOW"})
	if status != http.StatusOK {
		t.Fatalf("sentence: status %d", status)
	}
	if resp.Program != want {
		t.Errorf("sentence decode = %q, want %q", resp.Program, want)
	}
	if len(resp.Tokens) == 0 {
		t.Error("empty token list for a trained in-distribution sentence")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if !h.OK || h.Requests < 2 {
		t.Errorf("unexpected health: %+v", h)
	}
}

// TestServerSheds429 drives the HTTP front end into admission-control
// shedding and checks the 429 + Retry-After contract.
func TestServerSheds429(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 4)}
	srv := NewServer(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	defer close(sp.release)

	// Occupy the single queue slot with a blocked request.
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Batcher().ParseContextCtx(context.Background(), []string{"tweet", "alpha", "now"}, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Batcher().Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never occupied")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/parse", "application/json",
		bytes.NewReader([]byte(`{"sentence":"tweet alpha now"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded POST /parse status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After")
	}

	sp.release <- struct{}{}
	<-done
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := NewServer(toyParser(), Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postParse(t, ts.URL, ParseRequest{Sentence: "   "}); status != http.StatusBadRequest {
		t.Errorf("empty sentence status = %d, want 400", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/parse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /parse status = %d, want 405", resp.StatusCode)
	}
	// A body past MaxRequestBytes is rejected before it is buffered.
	huge := `{"sentence":"` + strings.Repeat("a", MaxRequestBytes) + `"}`
	resp, err = ts.Client().Post(ts.URL+"/parse", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /parse status = %d, want 413", resp.StatusCode)
	}
	// A body under the byte cap can still carry far more tokens than any
	// command: the sentence and the context are each capped before decode.
	long := strings.Repeat("a ", MaxSentenceWords+1)
	for name, body := range map[string]string{
		"sentence": `{"sentence":"` + long + `"}`,
		"words":    `{"words":["` + strings.Join(strings.Fields(long), `","`) + `"]}`,
		"context":  `{"sentence":"tweet alpha now","context":["` + strings.Join(strings.Fields(long), `","`) + `"]}`,
	} {
		before := srv.Batcher().Stats().Requests
		resp, err = ts.Client().Post(ts.URL+"/parse", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "limit 512") {
			t.Errorf("over-long %s: status = %d (%q), want 400 naming the limit", name, resp.StatusCode, msg)
		}
		if after := srv.Batcher().Stats().Requests; after != before {
			t.Errorf("over-long %s reached the decoder", name)
		}
	}
	// At the cap is fine.
	atCap := `{"sentence":"` + strings.Repeat("a ", MaxSentenceWords) + `"}`
	resp, err = ts.Client().Post(ts.URL+"/parse", "application/json", strings.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /parse of %d words status = %d, want 200", MaxSentenceWords, resp.StatusCode)
	}
}

// TestDeadlineContextBudgets: the deadline header grants finite, non-negative
// budgets (clamped to MaxDeadline) and is ignored otherwise. NaN, Inf and a
// budget past ~9.2e12 ms must not turn into a negative timeout — an instant
// 408 for the caller with the largest budget.
func TestDeadlineContextBudgets(t *testing.T) {
	for _, tc := range []struct {
		header string
		budget time.Duration // 0 = no deadline
	}{
		{"", 0},
		{"soon", 0},
		{"NaN", 0},
		{"Inf", 0},
		{"-Inf", 0},
		{"-1", 0},
		{"250", 250 * time.Millisecond},
		{"1e300", MaxDeadline},
		{"9.3e12", MaxDeadline},
	} {
		r := httptest.NewRequest(http.MethodPost, "/parse", nil)
		if tc.header != "" {
			r.Header.Set(DeadlineHeader, tc.header)
		}
		ctx, cancel := DeadlineContext(r)
		deadline, ok := ctx.Deadline()
		if err := ctx.Err(); err != nil {
			t.Errorf("header %q: context already done: %v", tc.header, err)
		}
		cancel()
		if tc.budget == 0 {
			if ok {
				t.Errorf("header %q set a deadline %s away, want none", tc.header, time.Until(deadline))
			}
			continue
		}
		if left := time.Until(deadline); !ok || left > tc.budget || left < tc.budget-time.Minute {
			t.Errorf("header %q: deadline %s away (set=%v), want %s", tc.header, left, ok, tc.budget)
		}
	}
}
