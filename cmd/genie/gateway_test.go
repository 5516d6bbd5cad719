package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gateway"
	"repro/internal/serve"
)

// TestGatewayFlagsRetryBudget: -retries N lets one request cost N+1 attempts
// against an always-503 backend, and an explicit -retries 0 costs exactly one
// (gateway.Options reads a zero RetryBudget as its default of 2).
func TestGatewayFlagsRetryBudget(t *testing.T) {
	var parses atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			serve.WriteJSON(w, serve.HealthResponse{OK: true})
		case "/skills":
			serve.WriteJSON(w, serve.SkillsResponse{Skills: []serve.SkillInfo{{Name: "alpha", Status: "ready"}}})
		case "/metrics":
			serve.WriteJSON(w, serve.MetricsResponse{})
		default:
			parses.Add(1)
			http.Error(w, "not ready", http.StatusServiceUnavailable)
		}
	}))
	defer backend.Close()

	for _, tc := range []struct {
		args     []string
		attempts int64
	}{
		{nil, 3},
		{[]string{"-retries", "0"}, 1},
		{[]string{"-retries", "1"}, 2},
	} {
		fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
		options := gatewayFlags(fs)
		if err := fs.Parse(append([]string{"-probe", "1h"}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		g := gateway.New([]string{backend.URL}, options())
		parses.Store(0)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/parse",
			strings.NewReader(`{"skill":"alpha","words":["x"]}`)))
		g.Close()
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%v: status %d, want the backend's 503", tc.args, rec.Code)
		}
		if got := parses.Load(); got != tc.attempts {
			t.Errorf("%v: %d attempts, want %d", tc.args, got, tc.attempts)
		}
	}
}
