package fleet

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// Server is the fleet's HTTP front end, speaking the serve package's wire
// types, so the gateway proxies to it unchanged:
//
//	POST /parse   {"skill": "...", "sentence"|"words": ...} -> serve.ParseResponse
//	              (no skill: fallback-routed by best length-normalized score)
//	GET  /skills  -> serve.SkillsResponse (lifecycle: status, checksum, generation)
//	GET  /metrics -> serve.MetricsResponse (per-skill traffic, latency, queue)
//	GET  /healthz -> serve.HealthResponse
type Server struct {
	reg *Registry
	mux *http.ServeMux
}

// NewServer wraps a registry in the fleet HTTP API.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/parse", s.handleParse)
	s.mux.HandleFunc("/skills", s.handleSkills)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// Handler returns the HTTP handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the whole fleet down (watcher, builds, shard drain).
func (s *Server) Close() { s.reg.Close() }

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req serve.ParseRequest
	words, ok := serve.ReadParseRequest(w, r, &req)
	if !ok {
		return
	}
	ctx, cancel := serve.DeadlineContext(r)
	defer cancel()
	start := time.Now()
	resp := serve.ParseResponse{Skill: req.Skill}
	var err error
	if req.Skill != "" {
		session := r.Header.Get(serve.SessionHeader)
		resp.Tokens, resp.Generation, err = s.reg.ParseSession(ctx, req.Skill, session, words, req.Context)
	} else {
		resp.Skill, resp.Tokens, resp.Score, resp.Generation, err = s.reg.ParseAny(ctx, words)
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownSkill):
			http.Error(w, err.Error(), http.StatusNotFound)
		case errors.Is(err, ErrNotReady):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			serve.WriteParseError(w, r, err)
		}
		return
	}
	if resp.Tokens == nil {
		resp.Tokens = []string{} // JSON [] rather than null
	}
	resp.Program = strings.Join(resp.Tokens, " ")
	resp.LatencyMS = float64(time.Since(start).Microseconds()) / 1000
	serve.WriteJSON(w, resp)
}

func (s *Server) handleSkills(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, serve.SkillsResponse{Skills: s.reg.Skills()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := serve.MetricsResponse{
		UptimeSeconds: s.reg.Uptime().Seconds(),
		Skills:        s.reg.Metrics(),
	}
	if c := s.reg.cfg.Cache; c != nil {
		resp.Durability = serve.DurabilityFrom(c.Stats())
	}
	serve.WriteJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var requests, batches int64
	ready := 0
	for _, m := range s.reg.Metrics() {
		requests += m.Requests
		batches += m.Batches
		if m.Generation > 0 {
			ready++
		}
	}
	serve.WriteJSON(w, serve.HealthResponse{OK: true, Requests: requests, Batches: batches, Skills: ready})
}
