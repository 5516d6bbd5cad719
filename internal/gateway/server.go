package gateway

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"time"

	"repro/internal/serve"
)

// BackendMetrics is one backend's view on the gateway's GET /metrics.
type BackendMetrics struct {
	Addr             string  `json:"addr"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	Ejections        int64   `json:"ejections"`
	Readmissions     int64   `json:"readmissions"`
	Requests         int64   `json:"requests"` // proxied /parse attempts
	Failures         int64   `json:"failures"` // of those, failed (transport/5xx)
	QueueDepth       int64   `json:"queue_depth"`
	Skills           int     `json:"skills"`  // skills the last probe listed
	EWMAMS           float64 `json:"ewma_ms"` // live successful-request latency EWMA
}

// Metrics is the gateway's GET /metrics reply: routing-tier counters plus
// per-backend health.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Retries       int64   `json:"retries"`
	Hedges        int64   `json:"hedges"`
	HedgeWins     int64   `json:"hedge_wins"`
	Fallbacks     int64   `json:"fallbacks"`
	Degraded      int64   `json:"degraded"`
	// Sticky counts requests that carried an X-Genie-Session and were routed
	// by session affinity rather than least-loaded pick.
	Sticky   int64            `json:"sticky"`
	P50MS    float64          `json:"p50_ms"`
	P99MS    float64          `json:"p99_ms"`
	Backends []BackendMetrics `json:"backends"`
}

// handleParse is the gateway's POST /parse: decode, route across replicas,
// pass the winning backend's reply through (naming the backend and attempt
// count in response headers).
func (g *Gateway) handleParse(w http.ResponseWriter, r *http.Request) {
	var req serve.ParseRequest
	if _, ok := serve.ReadParseRequest(w, r, &req); !ok {
		return
	}
	ctx, cancel := serve.DeadlineContext(r)
	defer cancel()
	start := time.Now()
	res, err := g.route(ctx, req, r.Header.Get(serve.SessionHeader))
	switch {
	case err == nil:
		if res.backend != "" {
			w.Header().Set("X-Genie-Backend", res.backend)
		}
		if res.attempts > 1 {
			w.Header().Set("X-Genie-Attempts", itoa(res.attempts))
		}
		if res.retryAfter > 0 && res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		if res.status == http.StatusOK {
			g.lat.Observe(float64(time.Since(start).Microseconds()) / 1000)
			w.Header().Set("Content-Type", "application/json")
		}
		w.WriteHeader(res.status)
		w.Write(res.body)
	case errors.Is(err, errDegraded):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		http.Error(w, "gateway: deadline budget exhausted: "+err.Error(), http.StatusRequestTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

// handleSkills aggregates skill state across the membership: a skill is
// "ready" when at least one of its ring replicas is routable and serving,
// "degraded" otherwise; Replicas counts the live ones.
func (g *Gateway) handleSkills(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, serve.SkillsResponse{Skills: g.SkillsSnapshot()})
}

// SkillsSnapshot is the aggregated fleet-wide skill table the gateway
// serves on /skills.
func (g *Gateway) SkillsSnapshot() []serve.SkillInfo {
	names := map[string]bool{}
	for _, b := range g.backends {
		for name := range b.skillNames() {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := make([]serve.SkillInfo, 0, len(sorted))
	for _, name := range sorted {
		info := serve.SkillInfo{Name: name, Status: StatusDegraded}
		for _, b := range g.ring.replicas(name, g.opt.Replication) {
			if b.routable() && b.servesSkill(name) {
				info.Replicas++
			}
		}
		if info.Replicas > 0 {
			info.Status = "ready"
		}
		out = append(out, info)
	}
	return out
}

// MetricsSnapshot assembles the gateway's live metrics.
func (g *Gateway) MetricsSnapshot() Metrics {
	m := Metrics{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Requests:      g.requests.Load(),
		Retries:       g.retries.Load(),
		Hedges:        g.hedges.Load(),
		HedgeWins:     g.hedgeWins.Load(),
		Fallbacks:     g.fallbacks.Load(),
		Degraded:      g.degraded.Load(),
		Sticky:        g.sticky.Load(),
	}
	m.P50MS, m.P99MS = g.lat.Quantiles()
	for _, b := range g.backends {
		m.Backends = append(m.Backends, BackendMetrics{
			Addr:             b.addr,
			State:            b.healthState().String(),
			ConsecutiveFails: int(b.fails.Load()),
			Ejections:        b.ejections.Load(),
			Readmissions:     b.readmits.Load(),
			Requests:         b.requests.Load(),
			Failures:         b.failures.Load(),
			QueueDepth:       b.queueDepth(""),
			Skills:           len(b.skillNames()),
			EWMAMS:           b.latencyEWMA(),
		})
	}
	return m
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, g.MetricsSnapshot())
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	ready := 0
	for _, s := range g.SkillsSnapshot() {
		if s.Status == "ready" {
			ready++
		}
	}
	serve.WriteJSON(w, serve.HealthResponse{OK: true, Requests: g.requests.Load(), Skills: ready})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
