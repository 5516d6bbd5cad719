package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	benchDir = "." // go test runs in bench/
	os.Exit(m.Run())
}

// goldenDigests pins the request list every workload's open loop draws from
// seed 1 (9 s at the frozen rate). The lists depend only on the committed
// pools under traffic/ and on the generator in traffic.go.
var goldenDigests = map[string]string{
	"serve-primitive": "ea1e8fe0cb6dff3434f5f0f6b84260e27be63b4c1113646e8bfbc1f4d245037d",
	"serve-compound":  "e33de0d6c3fcaad8fd146e7c0c1c17c2c0552b63277d181ffbcfe5923289e3ff",
	"serve-sessions":  "43bdb46e96a3706a8dc1689b00bd44b60c7b9d5f19d1055e41775216364ed39e",
	"train-offline":   "767405d9ce4344cc3eff2b7ce41c91c3895d4febff4892a8e816a74562f99663",
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		p, err := loadPool(w)
		if err != nil {
			t.Fatal(err)
		}
		a := generate(w, p, 1, "o", w.rate, 9, 0)
		b := generate(w, p, 1, "o", w.rate, 9, 0)
		c := generate(w, p, 2, "o", w.rate, 9, 0)
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave two different request lists", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
		if got := a.digest(); got != goldenDigests[w.name] {
			t.Errorf("%s: request list of seed 1 has digest %s, want %s", w.name, got, goldenDigests[w.name])
		}
		// The arrival count is Poisson around rate x span.
		want := w.rate * 9
		if w.class == "session" {
			want /= sessionTurns
		}
		if n := float64(len(a.arrivals)); n < 0.85*want || n > 1.15*want {
			t.Errorf("%s: %v arrivals in 9 s at %v/s", w.name, n, want)
		}
		for i := 1; i < len(a.arrivals); i++ {
			if a.arrivals[i].dueNS < a.arrivals[i-1].dueNS {
				t.Fatalf("%s: arrivals out of due order at %d", w.name, i)
			}
		}
	}
}

// failed counts the requests of a phase that returned an error.
func (s *loadStats) failed() int {
	n := 0
	for i := range s.results {
		if s.results[i].err != nil {
			n++
		}
	}
	return n
}

// testPool is a small synthetic pool, so that the generator tests do not
// depend on the committed fixtures.
func testPool(sessions bool) (*workload, *pool) {
	w := &workload{name: "test", skills: []string{"a", "b"}, mix: []float64{0.8, 0.2}, class: "primitive"}
	p := &pool{singles: map[string][]sample{}, sessions: map[string][]dialogueSample{}}
	for _, skill := range w.skills {
		for i := 0; i < 10; i++ {
			p.singles[skill] = append(p.singles[skill], sample{Words: fmt.Sprintf("%s say %d", skill, i), Gold: fmt.Sprintf("now => @%s.f%d => notify", skill, i)})
		}
	}
	if sessions {
		w.class = "session"
		for _, skill := range w.skills {
			for i := 0; i < 10; i++ {
				var d dialogueSample
				for k := 0; k < sessionTurns; k++ {
					d.Turns = append(d.Turns, sample{Words: fmt.Sprintf("%s session %d turn %d", skill, i, k), Gold: fmt.Sprintf("now => @%s.f%d => notify", skill, k)})
				}
				p.sessions[skill] = append(p.sessions[skill], d)
			}
		}
	}
	return w, p
}

func TestSkillMixFollowsTheWeights(t *testing.T) {
	w, p := testPool(false)
	tr := generate(w, p, 3, "o", 1000, 5, 0)
	n := 0
	for _, r := range tr.all {
		if r.skill == "a" {
			n++
		}
	}
	if share := float64(n) / float64(len(tr.all)); share < 0.75 || share > 0.85 {
		t.Errorf("skill a got %.2f of the traffic, want 0.80", share)
	}
}

func TestPoolIsDealtInPasses(t *testing.T) {
	w, p := testPool(false)
	w.skills, w.mix = w.skills[:1], []float64{1}
	tr := generate(w, p, 4, "c", 0, 0, 30)
	count := map[string]int{}
	for _, r := range tr.all {
		count[r.words[2]]++
	}
	for k, n := range count {
		if n != 3 {
			t.Errorf("utterance %s was drawn %d times in three passes over the pool", k, n)
		}
	}
}

// TestLatencyRunsFromTheDueTime: one sender, a first request that stalls for
// 60 ms, nine more due within the first 10 ms. They wait in the generator, and
// the stall must show in their latency although the handler answers them at
// once.
func TestLatencyRunsFromTheDueTime(t *testing.T) {
	w, p := testPool(false)
	tr := generate(w, p, 5, "o", 0, 0, 10)
	for i, r := range tr.arrivals {
		r.dueNS = int64(i) * int64(time.Millisecond)
	}
	const stall = 60 * time.Millisecond
	send := func(_ context.Context, r *request, _ []string) ([]string, error) {
		if r.id == 0 {
			time.Sleep(stall)
		}
		return []string{"now"}, nil
	}
	stats := openLoop(context.Background(), tr, 1, 0, send, nil, "")
	if len(stats.results) != 10 {
		t.Fatalf("%d results, want 10", len(stats.results))
	}
	for i := range stats.results {
		res := &stats.results[i]
		if res.req.id == 0 {
			continue
		}
		queued := stall - time.Duration(res.req.dueNS)
		if got := res.done.Sub(res.due); got < queued-5*time.Millisecond {
			t.Errorf("request %d was due %v into a %v stall but reports latency %v", res.req.id, time.Duration(res.req.dueNS), stall, got)
		}
		if late := res.sent.Sub(res.due); late < queued-5*time.Millisecond {
			t.Errorf("request %d: generator lateness %v, want about %v", res.req.id, late, queued)
		}
	}
	if stats.backlogMax < 5 {
		t.Errorf("backlog max %d, want the requests queued behind the stall", stats.backlogMax)
	}
}

// TestNeverMoreConnectionsThanAllowed: four senders share a client built for
// two connections; the server must never see a third.
func TestNeverMoreConnectionsThanAllowed(t *testing.T) {
	var open, peak atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"tokens":["now","=>","notify"],"program":"now => notify","latency_ms":0}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			n := open.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()

	w, p := testPool(false)
	tr := generate(w, p, 6, "o", 2000, 0.25, 0)
	hs := newHTTPSender(srv.URL, 2)
	defer hs.close()
	stats := openLoop(context.Background(), tr, 4, 0, hs.send, nil, "")
	if f := stats.failed(); f > 0 {
		t.Fatalf("%d of %d requests failed: %v", f, len(stats.results), stats.results[0].err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("server saw %d connections at once, the client may hold 2", got)
	}
	if len(stats.results) < 100 {
		t.Errorf("only %d requests were sent", len(stats.results))
	}
}

// TestFollowUpsWaitForTheReply: a follow-up turn is never sent before the
// previous turn's reply arrived plus the user's gap, and it carries that
// reply as its context.
func TestFollowUpsWaitForTheReply(t *testing.T) {
	w, p := testPool(true)
	tr := generate(w, p, 7, "o", 300, 0.3, 0)
	const gap = 20 * time.Millisecond
	var mu sync.Mutex
	replied := map[string]time.Time{} // session/turn -> when its reply left
	send := func(_ context.Context, r *request, prior []string) ([]string, error) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if r.turn > 0 {
			prev, ok := replied[fmt.Sprintf("%s/%d", r.session, r.turn-1)]
			if !ok {
				t.Errorf("%s turn %d sent before turn %d was answered", r.session, r.turn, r.turn-1)
			} else if now.Sub(prev) < gap {
				t.Errorf("%s turn %d sent %v after the previous reply, want at least %v", r.session, r.turn, now.Sub(prev), gap)
			}
			if want := fmt.Sprintf("reply %s %d", r.session, r.turn-1); len(prior) != 1 || prior[0] != want {
				t.Errorf("%s turn %d got context %q, want %q", r.session, r.turn, prior, want)
			}
		}
		time.Sleep(time.Millisecond)
		replied[fmt.Sprintf("%s/%d", r.session, r.turn)] = time.Now()
		return []string{fmt.Sprintf("reply %s %d", r.session, r.turn)}, nil
	}
	stats := openLoop(context.Background(), tr, 2, gap, send, nil, "")
	if len(stats.results) != len(tr.all) || len(tr.all) != sessionTurns*len(tr.arrivals) {
		t.Errorf("%d results for %d requests in %d sessions", len(stats.results), len(tr.all), len(tr.arrivals))
	}
}

// TestFailedTurnEndsItsSession: the follow-ups of a failed turn are skipped,
// not sent, and the loop still ends.
func TestFailedTurnEndsItsSession(t *testing.T) {
	w, p := testPool(true)
	tr := generate(w, p, 8, "o", 0, 0, 4)
	send := func(_ context.Context, r *request, _ []string) ([]string, error) {
		if r.turn == 0 && r.id == 0 {
			return nil, fmt.Errorf("boom")
		}
		return []string{"now"}, nil
	}
	stats := openLoop(context.Background(), tr, 2, 0, send, nil, "")
	if stats.skipped != sessionTurns-1 || len(stats.results) != len(tr.all)-stats.skipped || stats.failed() != 1 {
		t.Errorf("sent %d, skipped %d, failed %d of %d requests", len(stats.results), stats.skipped, stats.failed(), len(tr.all))
	}
}

func TestClosedLoopKeepsEveryClientBusy(t *testing.T) {
	w, p := testPool(true)
	tr := generate(w, p, 9, "c", 0, 0, 1000)
	var inFlight, peak atomic.Int64
	send := func(_ context.Context, r *request, _ []string) ([]string, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
		inFlight.Add(-1)
		return []string{"now"}, nil
	}
	stats := closedLoop(context.Background(), tr, 3, 100*time.Millisecond, send)
	if peak.Load() != 3 {
		t.Errorf("peak concurrency %d with 3 clients", peak.Load())
	}
	if rate := completionRate(stats); rate < 1000 || rate > 6000 {
		t.Errorf("completion rate %.0f/s for 3 clients at 0.5 ms a request", rate)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Ten samples beyond the percentile it names, by the nearest-rank rule.
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, highestPercentile(len(sorted))); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(sorted, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quartileSpread of three values = %v, want 1", got)
	}
}
