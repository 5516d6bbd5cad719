package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// postParse POSTs one parse request to a fleet server's /parse, with the
// session header when session is set, and returns the reply's status and,
// on 200, its decoded body.
func postParse(t *testing.T, url string, req serve.ParseRequest, session string) (int, serve.ParseResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/parse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if session != "" {
		hreq.Header.Set(serve.SessionHeader, session)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr serve.ParseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, pr
}

// getJSON GETs url and decodes its 200 reply into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestFleetHTTPEndToEnd drives the whole multi-skill API over HTTP:
// explicit-skill routing, fallback routing with a score,
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

	// Explicit skill.
	words := []string{"tweet", "bravo", "now"}
	status, resp := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: words}, "")
	if status != http.StatusOK {
		t.Fatalf("skill parse: status %d", status)
	}
	want := strings.Join(toyParser("alpha").Parse(words), " ")
	if resp.Program != want || resp.Skill != "alpha" || resp.Generation == 0 {
		t.Errorf("skill parse = %+v, want program %q", resp, want)
	}

	// Fallback routing: no skill named; the reply must name the routed
	// skill and carry its score.
	status, fresp := postParse(t, ts.URL, serve.ParseRequest{Words: words}, "")
	if status != http.StatusOK {
		t.Fatalf("fallback parse: status %d", status)
	}
	if fresp.Skill == "" || fresp.Score == 0 || fresp.Generation == 0 {
		t.Errorf("fallback reply missing routing info: %+v", fresp)
	}

	// Unknown skill: 404.
	if status, _ := postParse(t, ts.URL, serve.ParseRequest{Skill: "nosuch", Words: words}, ""); status != http.StatusNotFound {
		t.Errorf("unknown skill status = %d, want 404", status)
	}

	// /skills.
	var skills serve.SkillsResponse
	getJSON(t, ts.URL+"/skills", &skills)
	if len(skills.Skills) != 2 || skills.Skills[0].Name != "alpha" || skills.Skills[1].Name != "beta" {
		t.Errorf("skills = %+v", skills)
	}
	for _, s := range skills.Skills {
		if s.Status != StatusReady || s.Checksum == "" || s.Generation == 0 {
			t.Errorf("skill not ready over HTTP: %+v", s)
		}
	}

	// /metrics: alpha served traffic (explicit + fallback), latencies move.
	var metrics serve.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &metrics)
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
	var h serve.HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
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
