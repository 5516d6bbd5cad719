package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestFleetHTTPEndToEnd drives the whole multi-skill API through
// serve.Client: explicit-skill routing, fallback routing with a score,
// /skills, /metrics and /healthz, plus 404 on unknown skills.
func TestFleetHTTPEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	writeLib(t, dir, "beta", libV1("test.beta"))
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
	c := serve.NewClient(ts.URL)
	ctx := context.Background()

	// Explicit skill.
	words := []string{"tweet", "bravo", "now"}
	resp, err := c.ParseSkillCtx(ctx, "alpha", words)
	if err != nil {
		t.Fatalf("ParseSkillCtx: %v", err)
	}
	want := strings.Join(toyParser("alpha").Parse(words), " ")
	if resp.Program != want || resp.Skill != "alpha" || resp.Generation == 0 {
		t.Errorf("skill parse = %+v, want program %q", resp, want)
	}

	// eval.SkillDecoder adapter.
	if got := strings.Join(c.ParseSkill("alpha", words), " "); got != want {
		t.Errorf("Client.ParseSkill = %q, want %q", got, want)
	}

	// Fallback routing: no skill named; the reply must name the routed
	// skill and carry its score.
	fresp, err := c.ParseRequestCtx(ctx, serve.ParseRequest{Words: words})
	if err != nil {
		t.Fatalf("fallback parse: %v", err)
	}
	if fresp.Skill == "" || fresp.Score == 0 || fresp.Generation == 0 {
		t.Errorf("fallback reply missing routing info: %+v", fresp)
	}

	// Unknown skill: 404.
	if _, err := c.ParseSkillCtx(ctx, "nosuch", words); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown skill error = %v, want 404", err)
	}

	// /skills.
	skills, err := c.Skills(ctx)
	if err != nil {
		t.Fatalf("Skills: %v", err)
	}
	if len(skills.Skills) != 2 || skills.Skills[0].Name != "alpha" || skills.Skills[1].Name != "beta" {
		t.Errorf("skills = %+v", skills)
	}
	for _, s := range skills.Skills {
		if s.Status != StatusReady || s.Checksum == "" || s.Generation == 0 {
			t.Errorf("skill not ready over HTTP: %+v", s)
		}
	}

	// /metrics: alpha served traffic (explicit + fallback), latencies move.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	var alpha *serve.SkillMetrics
	for i := range metrics.Skills {
		if metrics.Skills[i].Name == "alpha" {
			alpha = &metrics.Skills[i]
		}
	}
	if alpha == nil || alpha.Requests < 2 || alpha.Batches < 1 {
		t.Errorf("alpha metrics = %+v", alpha)
	}
	if alpha.P50MS <= 0 || alpha.P99MS < alpha.P50MS {
		t.Errorf("implausible latency quantiles: %+v", alpha)
	}
	if len(alpha.BatchSizes) == 0 {
		t.Errorf("missing batch-size histogram: %+v", alpha)
	}
	// Sequential requests on an idle shard are pulled at once: the mean queue
	// wait is measured (non-zero) and far below a millisecond-scale window.
	if alpha.QueueWaitMS <= 0 || alpha.QueueWaitMS > 50 {
		t.Errorf("queue_wait_ms = %v on an idle shard, want a small positive mean", alpha.QueueWaitMS)
	}

	// /healthz counts ready skills.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.OK || h.Skills != 2 {
		t.Errorf("health = %+v", h)
	}

	// GET /parse is rejected.
	getResp, err := ts.Client().Get(ts.URL + "/parse")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /parse status = %d, want 405", getResp.StatusCode)
	}

	// A body past serve.MaxRequestBytes is rejected before it is buffered.
	huge := `{"skill":"alpha","sentence":"` + strings.Repeat("a", serve.MaxRequestBytes) + `"}`
	bigResp, err := ts.Client().Post(ts.URL+"/parse", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /parse status = %d, want 413", bigResp.StatusCode)
	}

	// So is a sentence (or context) with more tokens than any command.
	long := strings.Repeat("a ", serve.MaxSentenceWords+1)
	for _, body := range []string{
		`{"skill":"alpha","sentence":"` + long + `"}`,
		`{"skill":"alpha","sentence":"tweet x","context":["` + strings.Join(strings.Fields(long), `","`) + `"]}`,
	} {
		longResp, err := ts.Client().Post(ts.URL+"/parse", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		longResp.Body.Close()
		if longResp.StatusCode != http.StatusBadRequest {
			t.Errorf("over-long POST /parse status = %d, want 400", longResp.StatusCode)
		}
	}
}
