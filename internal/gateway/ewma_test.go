package gateway

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestLatencyEWMATracksTraffic: successful parses feed the backend's latency
// EWMA; errors and sheds do not.
func TestLatencyEWMATracksTraffic(t *testing.T) {
	fb := newFakeBackend(t, "replica", "alpha")
	fb.parseDelay.Store(int64(20 * time.Millisecond))
	g, ts := newTestGateway(t, testOptions(), fb)
	g.ProbeOnce()

	for i := 0; i < 5; i++ {
		resp, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parse %d = HTTP %d", i, resp.StatusCode)
		}
	}
	b := g.backends[0]
	ew := b.latencyEWMA()
	if ew < 15 {
		t.Fatalf("EWMA = %.2fms after 20ms parses, want >= 15ms", ew)
	}
	m := g.MetricsSnapshot()
	if len(m.Backends) != 1 || m.Backends[0].EWMAMS != ew {
		t.Fatalf("metrics ewma_ms = %+v, want %v surfaced", m.Backends, ew)
	}

	// A shedding backend answers fast — that speed must not poison the EWMA.
	fb.parseDelay.Store(0)
	fb.parseStatus.Store(http.StatusTooManyRequests)
	for i := 0; i < 10; i++ {
		postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: []string{"x"}}, nil)
	}
	if got := b.latencyEWMA(); got != ew {
		t.Fatalf("EWMA moved on non-200 replies: %.2f -> %.2f", ew, got)
	}
}

// TestHedgeDelayPrefersEWMA: the derived hedge delay uses the live EWMA when
// traffic has been observed, the probed p99 before that, and 50ms cold.
func TestHedgeDelayPrefersEWMA(t *testing.T) {
	fb := newFakeBackend(t, "replica", "alpha")
	g, _ := newTestGateway(t, testOptions(), fb)
	b := g.backends[0]

	if d := g.hedgeDelay(b, "alpha"); d != 50*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want 50ms", d)
	}
	b.updateProbe(map[string]string{"alpha": "ready"}, map[string]int64{}, map[string]float64{"alpha": 30})
	if d := g.hedgeDelay(b, "alpha"); d != 60*time.Millisecond {
		t.Fatalf("p99-derived hedge delay = %v, want 2x30ms", d)
	}
	b.observeLatency(10 * time.Millisecond)
	if d := g.hedgeDelay(b, "alpha"); d != 20*time.Millisecond {
		t.Fatalf("EWMA-derived hedge delay = %v, want 2x10ms", d)
	}
	// Clamps hold at the extremes.
	b.ewmaBits.Store(0)
	b.observeLatency(10 * time.Microsecond)
	if d := g.hedgeDelay(b, "alpha"); d != time.Millisecond {
		t.Fatalf("hedge delay floor = %v, want 1ms", d)
	}
	b.ewmaBits.Store(0)
	b.observeLatency(3 * time.Second)
	if d := g.hedgeDelay(b, "alpha"); d != 500*time.Millisecond {
		t.Fatalf("hedge delay ceiling = %v, want 500ms", d)
	}
	// An explicit HedgeAfter overrides every derived signal.
	g.opt.HedgeAfter = 7 * time.Millisecond
	if d := g.hedgeDelay(b, "alpha"); d != 7*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v, want 7ms", d)
	}
}
