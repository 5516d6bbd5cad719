package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRequest is the JSON body of POST /parse. Either a raw sentence
// (whitespace-tokenized, lowercased) or a pre-tokenized word list. Skill
// addresses one shard of a multi-skill fleet (internal/fleet); a fleet
// request without a skill is routed by the fallback scorer, and the
// single-parser Server ignores the field.
type ParseRequest struct {
	Skill    string   `json:"skill,omitempty"`
	Sentence string   `json:"sentence,omitempty"`
	Words    []string `json:"words,omitempty"`
	// Context is the previous turn's accepted program tokens, conditioning a
	// contextual parser's decode (multi-turn dialogue). Callers that track
	// their own dialogue state send it explicitly; callers that instead send
	// an X-Genie-Session header get it filled in server-side from the fleet's
	// session store. Non-contextual parsers ignore it.
	Context []string `json:"context,omitempty"`
}

// ParseResponse is the JSON reply: the decoded ThingTalk program as a token
// list and as one joined string, plus the server-side latency. A fleet
// reply also names the skill that answered, its snapshot generation, and —
// for scored fallback routing — the hypothesis's length-normalized score.
type ParseResponse struct {
	Skill      string   `json:"skill,omitempty"`
	Tokens     []string `json:"tokens"`
	Program    string   `json:"program"`
	Score      float64  `json:"score,omitempty"`
	Generation uint64   `json:"generation,omitempty"`
	LatencyMS  float64  `json:"latency_ms"`
}

// HealthResponse is the JSON reply of GET /healthz.
type HealthResponse struct {
	OK       bool  `json:"ok"`
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
	// Skills is the number of ready skills (fleet servers only).
	Skills int `json:"skills,omitempty"`
}

// SkillInfo describes one skill of a fleet (GET /skills). A gateway's
// /skills aggregates across backends: Status degrades to "degraded" when no
// live replica serves the skill, and Replicas counts the live ones.
type SkillInfo struct {
	Name       string `json:"name"`
	Status     string `json:"status"` // training, ready, reloading, failed, degraded
	Checksum   string `json:"checksum,omitempty"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error,omitempty"`
	Path       string `json:"path,omitempty"`
	Replicas   int    `json:"replicas,omitempty"`
}

// SkillsResponse is the JSON reply of a fleet's GET /skills.
type SkillsResponse struct {
	Skills []SkillInfo `json:"skills"`
}

// SkillMetrics is one skill's live serving metrics (GET /metrics).
type SkillMetrics struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Requests   int64  `json:"requests"`
	Shed       int64  `json:"shed"`
	// Errors is the cumulative count of requests this skill answered with an
	// error other than an admission-control shed (not-ready routing, expired
	// deadline budgets, decode failures); the gateway's ejection logic reads
	// it alongside Shed and QueueDepth.
	Errors     int64 `json:"errors"`
	QueueDepth int64 `json:"queue_depth"`
	// QueueWaitMS is the mean time a request of the serving generation spent
	// admitted but not yet pulled by a decode worker (Stats.QueueWait over
	// the batcher's requests): ≈ 0 until every worker is busy.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	Batches     int64   `json:"batches"`
	BatchSizes  []int64 `json:"batch_sizes,omitempty"`
	// Adaptive decode: how many requests went through the confidence-routed
	// path and how many of those escalated to the beam.
	Adaptive       int64   `json:"adaptive"`
	Escalated      int64   `json:"escalated"`
	EscalationRate float64 `json:"escalation_rate"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
	// Session-store counters (contextual skills with an X-Genie-Session
	// flow): live sessions, context lookups that hit or missed, and sessions
	// evicted by the store's LRU bound.
	Sessions         int64 `json:"sessions,omitempty"`
	SessionHits      int64 `json:"session_hits,omitempty"`
	SessionMisses    int64 `json:"session_misses,omitempty"`
	SessionEvictions int64 `json:"session_evictions,omitempty"`
}

// DurabilityMetrics are the snapshot-store and training-cache recovery
// counters of a fleet (GET /metrics): how often snapshots were written and
// read back, how many failed verification and were quarantined, how many
// loads rolled back to a last-good generation, and how training failures
// were handled.
type DurabilityMetrics struct {
	Saves            uint64 `json:"saves"`
	SaveFailures     uint64 `json:"save_failures"`
	Loads            uint64 `json:"loads"`
	LoadFailures     uint64 `json:"load_failures"`
	Quarantined      uint64 `json:"quarantined"`
	Rollbacks        uint64 `json:"rollbacks"`
	DiskLoadFailures uint64 `json:"disk_load_failures"`
	TransientRetries uint64 `json:"transient_retries"`
	Trainings        uint64 `json:"trainings"`
	TrainFailures    uint64 `json:"train_failures"`
}

// MetricsResponse is the JSON reply of a fleet's GET /metrics.
type MetricsResponse struct {
	// UptimeSeconds is how long this process has been serving.
	UptimeSeconds float64        `json:"uptime_seconds,omitempty"`
	Skills        []SkillMetrics `json:"skills"`
	// Durability carries the snapshot-store recovery counters (fleet
	// servers with a snapshot cache only).
	Durability *DurabilityMetrics `json:"durability,omitempty"`
}

// DurabilityFrom flattens cache stats into the wire form.
func DurabilityFrom(s CacheStats) *DurabilityMetrics {
	return &DurabilityMetrics{
		Saves:            s.Store.Saves,
		SaveFailures:     s.Store.SaveFailures,
		Loads:            s.Store.Loads,
		LoadFailures:     s.Store.LoadFailures,
		Quarantined:      s.Store.Quarantined,
		Rollbacks:        s.Store.Rollbacks,
		DiskLoadFailures: s.DiskLoadFailures,
		TransientRetries: s.TransientRetries,
		Trainings:        s.Trainings,
		TrainFailures:    s.TrainFailures,
	}
}

// Server is the HTTP front end over a Batcher.
//
//	POST /parse   {"sentence": "..."} or {"words": [...]} -> ParseResponse
//	GET  /healthz -> HealthResponse
type Server struct {
	b   *Batcher
	mux *http.ServeMux
}

// NewServer wraps a trained parser in a batching HTTP service.
func NewServer(p Parser, opt Options) *Server {
	s := &Server{b: NewBatcher(p, opt), mux: http.NewServeMux()}
	s.mux.HandleFunc("/parse", s.handleParse)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// Batcher exposes the underlying batcher (stats, direct ParseContextCtx calls).
func (s *Server) Batcher() *Batcher { return s.b }

// Handler returns the HTTP handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the batching layer down.
func (s *Server) Close() { s.b.Close() }

// RequestWords extracts the tokenized sentence of a parse request: words
// when given, else the sentence lowercased and split on whitespace, which
// matches the pipeline's pre-tokenized training data closely enough for
// serving. Shared by the single-parser and fleet servers.
func (r *ParseRequest) RequestWords() []string {
	if len(r.Words) > 0 {
		return r.Words
	}
	return strings.Fields(strings.ToLower(r.Sentence))
}

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds. The gateway stamps it from its context deadline on every
// outbound hop; servers honor it end to end (the Batcher answers a
// request whose budget ran out in the queue with 408 before spending a
// decode on it), so a caller's latency contract survives proxying, queueing
// and retries.
const DeadlineHeader = "X-Genie-Deadline-Ms"

// SessionHeader names a multi-turn dialogue session. A fleet server keys its
// per-skill session store by it — looking up the previous turn's accepted
// program as decoding context and recording each accepted parse back — and
// the gateway routes requests carrying it sticky to a consistent replica so
// follow-ups land where the session state lives.
const SessionHeader = "X-Genie-Session"

// MaxDeadline is the largest budget DeadlineHeader can grant; a larger value
// is clamped to it. Unclamped, a budget past ~9.2e12 ms overflows
// time.Duration to a negative timeout.
const MaxDeadline = 24 * time.Hour

// DeadlineContext applies an inbound request's propagated deadline budget:
// the returned context carries min(connection lifetime, header budget,
// MaxDeadline). With no header, or an unparsable, negative or non-finite
// one, it is just the request context.
func DeadlineContext(r *http.Request) (context.Context, context.CancelFunc) {
	ms, err := strconv.ParseFloat(r.Header.Get(DeadlineHeader), 64)
	if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return r.Context(), func() {}
	}
	budget := MaxDeadline
	if ms < float64(MaxDeadline/time.Millisecond) {
		budget = time.Duration(ms * float64(time.Millisecond))
	}
	return context.WithTimeout(r.Context(), budget)
}

// SetDeadlineHeader stamps ctx's remaining deadline budget onto an outbound
// request's headers (no-op without a deadline); the gateway's proxy hop
// calls it.
func SetDeadlineHeader(h http.Header, ctx context.Context) {
	d, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(d).Seconds() * 1000
	if ms < 0 {
		ms = 0
	}
	h.Set(DeadlineHeader, strconv.FormatFloat(ms, 'f', 3, 64))
}

// WriteParseError maps a serving error to its HTTP status: 429 with a
// Retry-After for admission-control shedding, 408 for exhausted deadline
// budgets and caller timeouts, 500 for recovered decode panics, 503
// otherwise. Shared by the single-parser and fleet servers.
func WriteParseError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusServiceUnavailable
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), r.Context().Err() != nil:
		status = http.StatusRequestTimeout
	case errors.Is(err, ErrDecodeFailed):
		status = http.StatusInternalServerError
	}
	http.Error(w, err.Error(), status)
}

// MaxRequestBytes caps the POST /parse body a server reads; a longer body
// answers 413.
const MaxRequestBytes = 1 << 20

// MaxSentenceWords and MaxContextTokens cap what one request may ask the
// decoder to encode (400 beyond them): the encoders and every decode step's
// attention are linear in both, and a MaxRequestBytes body fits ~260k
// one-letter words. The longest compound command in the benchmark traffic is
// ~40 tokens, and a stored previous program is at most MaxDecodeLen long.
const (
	MaxSentenceWords = 512
	MaxContextTokens = 512
)

// ReadParseRequest decodes and validates an inbound POST /parse into req and
// returns its tokenized sentence. On a wrong method (405), a body over
// MaxRequestBytes (413), malformed JSON, an empty sentence, or a sentence or
// context over its token cap (400) it writes the error reply itself and
// reports false. Shared by the single-parser, fleet and gateway handlers.
func ReadParseRequest(w http.ResponseWriter, r *http.Request, req *ParseRequest) (words []string, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return nil, false
	}
	words = req.RequestWords()
	switch {
	case len(words) == 0:
		http.Error(w, "empty sentence", http.StatusBadRequest)
	case len(words) > MaxSentenceWords:
		http.Error(w, fmt.Sprintf("sentence has %d words, limit %d", len(words), MaxSentenceWords), http.StatusBadRequest)
	case len(req.Context) > MaxContextTokens:
		http.Error(w, fmt.Sprintf("context has %d tokens, limit %d", len(req.Context), MaxContextTokens), http.StatusBadRequest)
	default:
		return words, true
	}
	return nil, false
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req ParseRequest
	words, ok := ReadParseRequest(w, r, &req)
	if !ok {
		return
	}
	ctx, cancel := DeadlineContext(r)
	defer cancel()
	start := time.Now()
	toks, err := s.b.ParseContextCtx(ctx, words, req.Context)
	if err != nil {
		WriteParseError(w, r, err)
		return
	}
	if toks == nil {
		toks = []string{} // JSON [] rather than null
	}
	WriteJSON(w, ParseResponse{
		Tokens:    toks,
		Program:   strings.Join(toks, " "),
		LatencyMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.b.Stats()
	WriteJSON(w, HealthResponse{OK: true, Requests: st.Requests, Batches: st.Batches})
}

// WriteJSON writes v as a JSON response (shared with the fleet server).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
