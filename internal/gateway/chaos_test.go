package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// TestGatewayChaosKillRestoreZeroFailures is the acceptance scenario: three
// replicas behind fault-injection proxies, retry budget 2, one replica
// killed mid-load (connection drops) and later restored. The skill keeps two
// live replicas throughout, so the client must see zero failures, and the
// killed replica must be readmitted within two probe intervals of
// restoration.
func TestGatewayChaosKillRestoreZeroFailures(t *testing.T) {
	backends := make([]*fakeBackend, 3)
	proxies := make([]*faultinject.Server, 3)
	addrs := make([]string, 3)
	for i := range backends {
		backends[i] = newFakeBackend(t, fmt.Sprintf("replica-%d", i), "alpha")
		p, err := faultinject.NewServer(backends[i].ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		addrs[i] = p.URL()
	}

	opt := testOptions()
	opt.Replication = 3
	opt.RetryBudget = 2
	opt.FailThreshold = 3
	g := New(addrs, opt)
	defer g.Close()

	var failures atomic.Int64
	var successes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptestRequest(t, g, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}})
				if req == http.StatusOK {
					successes.Add(1)
				} else {
					failures.Add(1)
				}
			}
		}()
	}

	// Let traffic flow, then kill the replica currently taking the traffic
	// (the router's preferred candidate), so the drop actually costs retries.
	time.Sleep(50 * time.Millisecond)
	victimAddr := g.candidates("alpha")[0].addr
	victim := 0
	for i, a := range addrs {
		if a == victimAddr {
			victim = i
		}
	}
	proxies[victim].SetFault(faultinject.Fault{Mode: faultinject.Drop})
	// Traffic failures plus probes eject it; keep load running meanwhile.
	for i := 0; i < opt.FailThreshold; i++ {
		g.ProbeOnce()
	}
	if st := stateOf(g, victimAddr); st != Ejected {
		t.Errorf("killed replica state = %v, want Ejected", st)
	}
	time.Sleep(50 * time.Millisecond)

	// Restore and assert readmission within two probe intervals.
	proxies[victim].SetFault(faultinject.Fault{Mode: faultinject.Pass})
	g.ProbeOnce()
	g.ProbeOnce()
	if st := stateOf(g, victimAddr); st != Healthy {
		t.Errorf("restored replica state after 2 probes = %v, want Healthy", st)
	}
	time.Sleep(50 * time.Millisecond)

	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Errorf("client-visible failures = %d, want 0 (retry budget must absorb the kill)", f)
	}
	if s := successes.Load(); s == 0 {
		t.Fatal("no load was driven")
	}
	if m := g.MetricsSnapshot(); m.Retries == 0 {
		t.Errorf("Metrics.Retries = 0, expected the kill to cost retries")
	}
}

// httptestRequest drives one POST /parse through the gateway's handler
// in-process and returns the status code.
func httptestRequest(t *testing.T, g *Gateway, req serve.ParseRequest) int {
	return httptestSessionRequest(t, g, req, "")
}

// httptestSessionRequest is httptestRequest with an X-Genie-Session header.
func httptestSessionRequest(t *testing.T, g *Gateway, req serve.ParseRequest, session string) int {
	t.Helper()
	body, _ := json.Marshal(req)
	r, err := http.NewRequest(http.MethodPost, "/parse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "application/json")
	if session != "" {
		r.Header.Set(serve.SessionHeader, session)
	}
	w := &statusRecorder{header: http.Header{}}
	g.Handler().ServeHTTP(w, r)
	return w.status
}

// statusRecorder is a minimal ResponseWriter; httptest.NewRecorder would
// work too but this keeps the hot loop allocation-light.
type statusRecorder struct {
	header http.Header
	status int
}

func (w *statusRecorder) Header() http.Header { return w.header }
func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
func (w *statusRecorder) WriteHeader(code int) { w.status = code }

// TestGatewayStickySessionSurvivesEjectionReadmission is the session tier's
// gateway chaos test: requests carrying one X-Genie-Session must all land on
// the session's rendezvous-choice replica even when least-loaded routing
// would pick another; when that replica is ejected they fail over together
// to one stable second choice with zero client-visible failures, and they
// return to the original replica as soon as it is readmitted. Runs under
// -race in CI.
func TestGatewayStickySessionSurvivesEjectionReadmission(t *testing.T) {
	backends := make([]*fakeBackend, 3)
	proxies := make([]*faultinject.Server, 3)
	addrs := make([]string, 3)
	byAddr := map[string]*fakeBackend{}
	for i := range backends {
		backends[i] = newFakeBackend(t, fmt.Sprintf("replica-%d", i), "alpha")
		p, err := faultinject.NewServer(backends[i].ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		addrs[i] = p.URL()
		byAddr[p.URL()] = backends[i]
	}

	opt := testOptions()
	opt.Replication = 3
	opt.RetryBudget = 2
	opt.FailThreshold = 3
	g := New(addrs, opt)
	defer g.Close()

	const session = "sess-sticky-chaos"
	// The session's deterministic preference chain, mirroring stickyOrder.
	rank := append([]string(nil), addrs...)
	sort.Slice(rank, func(i, j int) bool {
		return hashKey(session+"@"+rank[i]) > hashKey(session+"@"+rank[j])
	})
	first, second := rank[0], rank[1]
	victim := 0
	for i, a := range addrs {
		if a == first {
			victim = i
		}
	}
	// Make the sticky pick the *worst* least-loaded candidate, so plain
	// queue-depth routing would send the session elsewhere.
	byAddr[first].setDepth("alpha", 50)
	g.ProbeOnce()

	drive := func(phase string) {
		t.Helper()
		var failures atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if httptestSessionRequest(t, g, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, session) != http.StatusOK {
						failures.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if f := failures.Load(); f != 0 {
			t.Fatalf("%s: %d client-visible failures, want 0", phase, f)
		}
	}
	parses := func() map[string]int64 {
		out := map[string]int64{}
		for _, a := range addrs {
			out[a] = byAddr[a].parses.Load()
		}
		return out
	}

	// Phase 1: healthy fleet — every session request sticks to the
	// rendezvous winner despite its queue depth.
	before := parses()
	drive("healthy")
	after := parses()
	if got := after[first] - before[first]; got != 100 {
		t.Errorf("healthy: sticky replica served %d/100 session requests", got)
	}
	if s, _ := byAddr[first].lastSession.Load().(string); s != session {
		t.Errorf("session header not forwarded: backend saw %q", s)
	}

	// Phase 2: eject the sticky replica; the session fails over to its
	// stable second choice.
	proxies[victim].SetFault(faultinject.Fault{Mode: faultinject.Drop})
	for i := 0; i < opt.FailThreshold; i++ {
		g.ProbeOnce()
	}
	if st := stateOf(g, first); st != Ejected {
		t.Fatalf("sticky replica state = %v, want Ejected", st)
	}
	before = parses()
	drive("ejected")
	after = parses()
	if got := after[second] - before[second]; got != 100 {
		t.Errorf("ejected: failover replica served %d/100 session requests", got)
	}

	// Phase 3: restore and readmit; the session returns home.
	proxies[victim].SetFault(faultinject.Fault{Mode: faultinject.Pass})
	g.ProbeOnce()
	g.ProbeOnce()
	if st := stateOf(g, first); st != Healthy {
		t.Fatalf("restored replica state = %v, want Healthy", st)
	}
	before = parses()
	drive("readmitted")
	after = parses()
	if got := after[first] - before[first]; got != 100 {
		t.Errorf("readmitted: sticky replica served %d/100 session requests", got)
	}

	if m := g.MetricsSnapshot(); m.Sticky < 300 {
		t.Errorf("Metrics.Sticky = %d, want >= 300 session-affine requests", m.Sticky)
	}
}
