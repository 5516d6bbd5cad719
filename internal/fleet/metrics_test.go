package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestFleetMetricsErrorsAndUptime covers the gateway-facing additions to
// GET /metrics: the per-skill cumulative error counter (non-shed errors
// only) and the process uptime.
func TestFleetMetricsErrorsAndUptime(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	r, err := New(testConfig(dir, &counts))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	defer srv.Close()
	waitReady(t, r)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	words := []string{"tweet", "bravo", "now"}

	// A healthy parse: no errors counted.
	if status, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: words}, ""); status != http.StatusOK {
		t.Fatalf("POST /parse: status %d", status)
	}

	// An exhausted deadline budget is a non-shed error the skill answered
	// with; it must move the counter.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, perr := parseSkill(r, expired, "alpha", words); perr == nil {
		t.Fatal("expired-context Parse should error")
	}

	var m serve.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %v, want > 0", m.UptimeSeconds)
	}
	var alpha *serve.SkillMetrics
	for i := range m.Skills {
		if m.Skills[i].Name == "alpha" {
			alpha = &m.Skills[i]
		}
	}
	if alpha == nil {
		t.Fatalf("alpha missing from metrics: %+v", m)
	}
	if alpha.Errors != 1 {
		t.Errorf("alpha.Errors = %d, want 1 (one expired-budget request)", alpha.Errors)
	}
	if alpha.Shed != 0 {
		t.Errorf("alpha.Shed = %d, want 0", alpha.Shed)
	}
}
