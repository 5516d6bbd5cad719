package gateway

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeBackend mimics a fleet process's HTTP surface (/parse, /healthz,
// /skills, /metrics) with twistable behavior: health, per-skill queue depth
// and p99 (the probe signal), parse delay and injected parse status.
type fakeBackend struct {
	ts     *httptest.Server
	name   string
	skills []string

	ok          atomic.Bool  // /healthz answers OK
	parseStatus atomic.Int32 // non-zero: /parse answers this status
	parseDelay  atomic.Int64 // ns to sleep before answering /parse
	shedNext    atomic.Int64 // the next n /parse shed with 429 and Retry-After: 0.05

	mu    sync.Mutex
	depth map[string]int64
	p99   map[string]float64

	parses       atomic.Int64
	conns        atomic.Int64 // connections the backend accepted
	sawDeadline  atomic.Bool  // a /parse carried the deadline-budget header
	lastDeadline atomic.Value // string
	lastSession  atomic.Value // string: last X-Genie-Session a /parse carried
}

func newFakeBackend(t *testing.T, name string, skills ...string) *fakeBackend {
	t.Helper()
	b := &fakeBackend{name: name, skills: skills, depth: map[string]int64{}, p99: map[string]float64{}}
	b.ok.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !b.ok.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		serve.WriteJSON(w, serve.HealthResponse{OK: true})
	})
	mux.HandleFunc("/skills", func(w http.ResponseWriter, r *http.Request) {
		var out serve.SkillsResponse
		for _, s := range b.skills {
			out.Skills = append(out.Skills, serve.SkillInfo{Name: s, Status: "ready"})
		}
		serve.WriteJSON(w, out)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		var out serve.MetricsResponse
		for _, s := range b.skills {
			out.Skills = append(out.Skills, serve.SkillMetrics{Name: s, QueueDepth: b.depth[s], P99MS: b.p99[s]})
		}
		b.mu.Unlock()
		serve.WriteJSON(w, out)
	})
	mux.HandleFunc("/parse", func(w http.ResponseWriter, r *http.Request) {
		b.parses.Add(1)
		if h := r.Header.Get(serve.DeadlineHeader); h != "" {
			b.sawDeadline.Store(true)
			b.lastDeadline.Store(h)
		}
		if h := r.Header.Get(serve.SessionHeader); h != "" {
			b.lastSession.Store(h)
		}
		if d := time.Duration(b.parseDelay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		if n := b.shedNext.Load(); n > 0 && b.shedNext.CompareAndSwap(n, n-1) {
			w.Header().Set("Retry-After", "0.05")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		if code := int(b.parseStatus.Load()); code != 0 {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "0.02")
			}
			http.Error(w, "injected", code)
			return
		}
		var req serve.ParseRequest
		json.NewDecoder(r.Body).Decode(&req)
		serve.WriteJSON(w, serve.ParseResponse{
			Skill: req.Skill, Tokens: []string{"now", "=>", b.name}, Program: "now => " + b.name,
		})
	})
	b.ts = httptest.NewUnstartedServer(mux)
	b.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			b.conns.Add(1)
		}
	}
	b.ts.Start()
	t.Cleanup(b.ts.Close)
	return b
}

func (b *fakeBackend) setDepth(skill string, d int64) {
	b.mu.Lock()
	b.depth[skill] = d
	b.mu.Unlock()
}

func (b *fakeBackend) setP99(skill string, ms float64) {
	b.mu.Lock()
	b.p99[skill] = ms
	b.mu.Unlock()
}

// testOptions parks the background probe loop (an hour) so tests drive
// health deterministically with ProbeOnce.
func testOptions() Options {
	return Options{
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
	}
}

func newTestGateway(t *testing.T, opt Options, backends ...*fakeBackend) (*Gateway, *httptest.Server) {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.ts.URL
	}
	g := New(addrs, opt)
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// stateOf reports the health state of the member at addr.
func stateOf(g *Gateway, addr string) State {
	for _, b := range g.backends {
		if b.addr == addr {
			return b.healthState()
		}
	}
	panic("gateway: no member " + addr)
}

func postParse(t *testing.T, url string, req serve.ParseRequest, hdr map[string]string) (*http.Response, serve.ParseResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/parse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr serve.ParseResponse
	json.NewDecoder(resp.Body).Decode(&pr)
	return resp, pr
}

// TestGatewayRoutesBySkillConsistently: the same skill hashes to the same
// replica set request after request, and the replica set holds R distinct
// backends.
func TestGatewayRoutesBySkillConsistently(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha", "beta")
	b2 := newFakeBackend(t, "two", "alpha", "beta")
	b3 := newFakeBackend(t, "three", "alpha", "beta")
	opt := testOptions()
	opt.Replication = 2
	g, ts := newTestGateway(t, opt, b1, b2, b3)

	rg := g.ring
	reps := rg.replicas("alpha", 2)
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("replicas(alpha, 2) = %d distinct backends, want 2", len(reps))
	}
	repAddrs := map[string]bool{reps[0].addr: true, reps[1].addr: true}

	first := ""
	for i := 0; i < 8; i++ {
		resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		got := resp.Header.Get("X-Genie-Backend")
		if !repAddrs[got] {
			t.Fatalf("request %d answered by %s, outside the replica set %v", i, got, repAddrs)
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("routing flapped between %s and %s with stable health and load", first, got)
		}
	}
}

// TestGatewayLeastLoadedPick: with equal health, the replica with the lower
// probed queue depth takes the traffic.
func TestGatewayLeastLoadedPick(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.setDepth("alpha", 50)
	b2.setDepth("alpha", 0)
	g.ProbeOnce()
	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if got := resp.Header.Get("X-Genie-Backend"); got != b2.ts.URL {
		t.Errorf("loaded pick answered by %s, want the idle backend %s", got, b2.ts.URL)
	}

	// Flip the load; the pick follows.
	b1.setDepth("alpha", 0)
	b2.setDepth("alpha", 50)
	g.ProbeOnce()
	resp, _ = postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if got := resp.Header.Get("X-Genie-Backend"); got != b1.ts.URL {
		t.Errorf("after load flip answered by %s, want %s", got, b1.ts.URL)
	}
}

// TestGatewayRetryFailsOver: a 500 from the preferred replica is retried on
// the next one within the budget, invisibly to the client.
func TestGatewayRetryFailsOver(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	opt.RetryBudget = 2
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.setDepth("alpha", 0)
	b2.setDepth("alpha", 10) // prefer b1
	g.ProbeOnce()
	b1.parseStatus.Store(http.StatusInternalServerError)

	resp, pr := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via retry", resp.StatusCode)
	}
	if resp.Header.Get("X-Genie-Backend") != b2.ts.URL {
		t.Errorf("answered by %s, want failover to %s", resp.Header.Get("X-Genie-Backend"), b2.ts.URL)
	}
	if resp.Header.Get("X-Genie-Attempts") != "2" {
		t.Errorf("X-Genie-Attempts = %q, want 2", resp.Header.Get("X-Genie-Attempts"))
	}
	if pr.Program != "now => two" {
		t.Errorf("program = %q", pr.Program)
	}
	if m := g.MetricsSnapshot(); m.Retries < 1 {
		t.Errorf("Metrics.Retries = %d, want >= 1", m.Retries)
	}
}

// TestGatewayShedRetry: a 429 is backpressure, not a health failure — the
// gateway retries elsewhere and the shedding backend stays healthy.
func TestGatewayShedRetry(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.setDepth("alpha", 0)
	b2.setDepth("alpha", 10)
	g.ProbeOnce()
	b1.parseStatus.Store(http.StatusTooManyRequests)

	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via shed retry", resp.StatusCode)
	}
	if st := stateOf(g, b1.ts.URL); st != Healthy {
		t.Errorf("shedding backend state = %v, want Healthy (429 must not feed the breaker)", st)
	}
}

// TestGatewayHonorsRetryAfterWhenEveryReplicaShed: a lone replica that
// sheds twice with Retry-After and then answers gets the request through,
// and the gateway waits out each advertised Retry-After (50ms) rather than
// its own millisecond backoff, because no untried replica is left.
func TestGatewayHonorsRetryAfterWhenEveryReplicaShed(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	opt := testOptions()
	opt.Replication = 1
	_, ts := newTestGateway(t, opt, b1)

	b1.shedNext.Store(2)
	start := time.Now()
	resp, pr := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || pr.Program != "now => one" {
		t.Fatalf("status = %d (%q), want 200 after two sheds", resp.StatusCode, pr.Program)
	}
	if got := resp.Header.Get("X-Genie-Attempts"); got != "3" {
		t.Errorf("X-Genie-Attempts = %q, want 3", got)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("answered after %v, want at least the two advertised 50ms waits", elapsed)
	}
}

// TestGatewayDeadlineBoundsRetries: against an always-503 backend, retries
// stop when the next backoff would overrun the caller's 80ms deadline
// budget: the gateway answers 408 within the budget, after at most
// RetryBudget+1 attempts.
func TestGatewayDeadlineBoundsRetries(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	opt := testOptions()
	opt.Replication = 1
	opt.RetryBudget = 10
	opt.BaseBackoff = 50 * time.Millisecond
	opt.MaxBackoff = time.Second
	_, ts := newTestGateway(t, opt, b1)

	b1.parseStatus.Store(http.StatusServiceUnavailable)
	start := time.Now()
	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}},
		map[string]string{serve.DeadlineHeader: "80"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("status = %d, want 408", resp.StatusCode)
	}
	if elapsed > 80*time.Millisecond+200*time.Millisecond {
		t.Errorf("408 took %v, want it within the 80ms budget (plus scheduling slack)", elapsed)
	}
	if n := b1.parses.Load(); n < 1 || n > int64(opt.RetryBudget)+1 {
		t.Errorf("backend saw %d attempts, want 1..%d", n, opt.RetryBudget+1)
	}
}

// TestGatewayPassesThroughBackend404: a definitive client error from a
// backend is answered as is after one attempt; no other replica is tried.
func TestGatewayPassesThroughBackend404(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.parseStatus.Store(http.StatusNotFound)
	b2.parseStatus.Store(http.StatusNotFound)
	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want the backend's 404", resp.StatusCode)
	}
	if n := b1.parses.Load() + b2.parses.Load(); n != 1 {
		t.Errorf("backends saw %d attempts, want 1", n)
	}
	if m := g.MetricsSnapshot(); m.Retries != 0 {
		t.Errorf("Metrics.Retries = %d, want 0", m.Retries)
	}
}

// TestParseRetryAfter: delay-seconds and HTTP-date values parse to a wait;
// absent, unparsable, negative and non-finite values to 0; and a value past
// serve.MaxDeadline clamps to it instead of overflowing to a negative wait.
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
		{"NaN", 0},
		{"Inf", 0},
		{"-Inf", 0},
		{"86400", serve.MaxDeadline},
		{"1e9", serve.MaxDeadline},
		{"9.3e9", serve.MaxDeadline},
		{"1e10", serve.MaxDeadline},
		{"1e300", serve.MaxDeadline},
		{"Mon, 01 Jan 9999 00:00:00 GMT", serve.MaxDeadline},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form: a date in the future parses to a positive wait.
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 3*time.Second {
		t.Errorf("parseRetryAfter(%q) = %v, want in (0, 3s]", future, got)
	}
}

// TestGatewayEjectionAndReadmission walks the circuit breaker end to end:
// FailThreshold failed probes eject, traffic routes around the ejection, and
// a restored backend is readmitted within two probes (half-open, then
// healthy).
func TestGatewayEjectionAndReadmission(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	opt.FailThreshold = 3
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.setDepth("alpha", 0)
	b2.setDepth("alpha", 10) // b1 preferred while healthy
	g.ProbeOnce()

	b1.ok.Store(false)
	for i := 0; i < 3; i++ {
		g.ProbeOnce()
	}
	if st := stateOf(g, b1.ts.URL); st != Ejected {
		t.Fatalf("state after %d failed probes = %v, want Ejected", 3, st)
	}

	// Ejected: traffic routes around it despite the depth preference.
	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Genie-Backend") != b2.ts.URL {
		t.Fatalf("during ejection: status %d via %s, want 200 via %s",
			resp.StatusCode, resp.Header.Get("X-Genie-Backend"), b2.ts.URL)
	}

	// Restore: readmitted within two probe intervals.
	b1.ok.Store(true)
	g.ProbeOnce()
	if st := stateOf(g, b1.ts.URL); st != HalfOpen {
		t.Fatalf("state after restore probe 1 = %v, want HalfOpen", st)
	}
	g.ProbeOnce()
	if st := stateOf(g, b1.ts.URL); st != Healthy {
		t.Fatalf("state after restore probe 2 = %v, want Healthy", st)
	}
	if m := g.MetricsSnapshot(); m.Backends[0].Ejections < 1 && m.Backends[1].Ejections < 1 {
		t.Errorf("no ejection counted in metrics: %+v", m.Backends)
	}
}

// TestStaleSuccessDoesNotReadmit: the reply to a request sent before the
// backend was ejected (in flight when it died) leaves it ejected; a success
// sent after the ejection starts readmission.
func TestStaleSuccessDoesNotReadmit(t *testing.T) {
	b := newBackend("http://replica")
	sent := b.ejections.Load()
	for i := 0; i < 3; i++ {
		b.recordFailure(3)
	}
	if st := b.healthState(); st != Ejected {
		t.Fatalf("state after 3 failures = %v, want Ejected", st)
	}
	b.recordSuccess(sent)
	if st := b.healthState(); st != Ejected {
		t.Fatalf("state after a success sent before the ejection = %v, want Ejected", st)
	}
	b.recordSuccess(b.ejections.Load())
	if st := b.healthState(); st != HalfOpen {
		t.Fatalf("state after a success sent after the ejection = %v, want HalfOpen", st)
	}
}

// TestGatewayDegradedSkill: a skill whose only replica is gone answers 503
// and shows degraded on /skills; with CrossSkillFallback armed the request
// is answered by a healthy backend's scored fallback instead.
func TestGatewayDegradedSkill(t *testing.T) {
	b1 := newFakeBackend(t, "one", "gamma")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	opt.FailThreshold = 2
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.ok.Store(false)
	g.ProbeOnce()
	g.ProbeOnce()
	if st := stateOf(g, b1.ts.URL); st != Ejected {
		t.Fatalf("gamma's backend not ejected: %v", st)
	}

	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "gamma", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded skill status = %d, want 503", resp.StatusCode)
	}
	found := false
	for _, s := range g.SkillsSnapshot() {
		if s.Name == "gamma" {
			found = true
			if s.Status != StatusDegraded || s.Replicas != 0 {
				t.Errorf("gamma on /skills = %+v, want degraded with 0 replicas", s)
			}
		}
	}
	if !found {
		t.Error("gamma missing from the aggregated /skills")
	}

	// Same topology with the fallback armed: the request is answered.
	opt2 := testOptions()
	opt2.Replication = 2
	opt2.FailThreshold = 2
	opt2.CrossSkillFallback = true
	b3 := newFakeBackend(t, "three", "gamma")
	b4 := newFakeBackend(t, "four", "alpha")
	g2, ts2 := newTestGateway(t, opt2, b3, b4)
	b3.ok.Store(false)
	g2.ProbeOnce()
	g2.ProbeOnce()
	resp2, pr2 := postParse(t, ts2.URL, serve.ParseRequest{Skill: "gamma", Words: []string{"x"}}, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fallback status = %d, want 200", resp2.StatusCode)
	}
	if pr2.Program != "now => four" {
		t.Errorf("fallback answered %q, want the healthy backend", pr2.Program)
	}
	if m := g2.MetricsSnapshot(); m.Fallbacks != 1 || m.Degraded != 1 {
		t.Errorf("fallback metrics = fallbacks=%d degraded=%d, want 1/1", m.Fallbacks, m.Degraded)
	}
}

// TestGatewayHedgeWins: a slow primary is hedged to the backup after the
// hedge delay and the backup's answer wins.
func TestGatewayHedgeWins(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	b2 := newFakeBackend(t, "two", "alpha")
	opt := testOptions()
	opt.Replication = 2
	opt.Hedge = true
	opt.HedgeAfter = 10 * time.Millisecond
	g, ts := newTestGateway(t, opt, b1, b2)

	b1.setDepth("alpha", 0)
	b2.setDepth("alpha", 10) // b1 is primary
	g.ProbeOnce()
	b1.parseDelay.Store(int64(400 * time.Millisecond))

	start := time.Now()
	resp, pr := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if pr.Program != "now => two" {
		t.Errorf("answered %q, want the hedged backup", pr.Program)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Errorf("hedged request took %v, the slow primary's latency", elapsed)
	}
	if m := g.MetricsSnapshot(); m.Hedges < 1 || m.HedgeWins < 1 {
		t.Errorf("hedge metrics = hedges=%d wins=%d, want >= 1/1", m.Hedges, m.HedgeWins)
	}
}

// TestGatewayDeadlinePropagation: the client's deadline-budget header rides
// through the gateway to the backend, and an exhausted budget answers 408.
func TestGatewayDeadlinePropagation(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	opt := testOptions()
	opt.Replication = 1
	g, ts := newTestGateway(t, opt, b1)
	_ = g

	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}},
		map[string]string{serve.DeadlineHeader: "5000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !b1.sawDeadline.Load() {
		t.Error("backend never saw the propagated deadline header")
	}

	// A budget shorter than the backend's latency: 408, bounded by the budget.
	b1.parseDelay.Store(int64(2 * time.Second))
	start := time.Now()
	resp2, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}},
		map[string]string{serve.DeadlineHeader: "60"})
	if resp2.StatusCode != http.StatusRequestTimeout {
		t.Errorf("expired-budget status = %d, want 408", resp2.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("408 took %v, want roughly the 60ms budget", elapsed)
	}
}

// TestGatewayUnknownSkillTerminal: requests for a skill nobody has ever
// served answer 503 degraded without burning the retry budget on backends.
func TestGatewayUnknownSkillTerminal(t *testing.T) {
	b1 := newFakeBackend(t, "one", "alpha")
	opt := testOptions()
	g, ts := newTestGateway(t, opt, b1)

	before := b1.parses.Load()
	resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "nope", Words: []string{"x"}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unknown skill status = %d, want 503", resp.StatusCode)
	}
	if b1.parses.Load() != before {
		t.Error("unknown skill burned a backend attempt")
	}
	if m := g.MetricsSnapshot(); m.Degraded < 1 {
		t.Errorf("Metrics.Degraded = %d, want >= 1", m.Degraded)
	}
}

// TestGatewayReusesBackendConnections drives 16 concurrent clients for 20
// rounds at one backend and bounds the connections the backend accepted: the
// gateway's own transport keeps an idle pool as wide as the concurrency, where
// http.DefaultTransport's 2 idle connections per host re-dialed the other 14
// every round (~280 connections).
func TestGatewayReusesBackendConnections(t *testing.T) {
	b := newFakeBackend(t, "one", "alpha")
	_, ts := newTestGateway(t, testOptions(), b)
	const clients, rounds = 16, 20
	body, _ := json.Marshal(serve.ParseRequest{Skill: "alpha", Sentence: "x y"})
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/parse", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST /parse: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /parse status = %d, want 200", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if got := b.parses.Load(); got != clients*rounds {
		t.Fatalf("backend saw %d parses, want %d", got, clients*rounds)
	}
	// One connection per concurrent client, plus slack for a connection still
	// on its way back to the idle pool when the next round starts.
	if got := b.conns.Load(); got > 3*clients {
		t.Errorf("backend accepted %d connections for %d requests at concurrency %d, want <= %d (idle pool too small)",
			got, clients*rounds, clients, 3*clients)
	}
}

// TestGatewayRejectsOversizedBody: a /parse body past serve.MaxRequestBytes
// answers 413 and never reaches a backend.
func TestGatewayRejectsOversizedBody(t *testing.T) {
	b := newFakeBackend(t, "one", "alpha")
	_, ts := newTestGateway(t, testOptions(), b)
	body := `{"skill":"alpha","sentence":"` + strings.Repeat("a", serve.MaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/parse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /parse status = %d, want 413", resp.StatusCode)
	}
	// Under the byte cap but over the token caps: 400 at the gateway, no hop.
	long := strings.Repeat("a ", serve.MaxSentenceWords+1)
	for _, body := range []string{
		`{"skill":"alpha","sentence":"` + long + `"}`,
		`{"skill":"alpha","sentence":"tweet x","context":["` + strings.Join(strings.Fields(long), `","`) + `"]}`,
	} {
		resp, err := http.Post(ts.URL+"/parse", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("over-long POST /parse status = %d, want 400", resp.StatusCode)
		}
	}
	if got := b.parses.Load(); got != 0 {
		t.Errorf("backend saw %d parses of an oversized request, want 0", got)
	}
}
