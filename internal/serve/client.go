package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// StatusError is a non-2xx HTTP reply surfaced as a typed error, so retry
// policy can branch on the status code and the server's parsed Retry-After
// hint instead of substring-matching flattened error text.
type StatusError struct {
	Status     int
	RetryAfter time.Duration // parsed Retry-After hint (0 when absent)
	Msg        string        // response body, truncated
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: http %d: %s", e.Status, e.Msg)
}

// Is keeps errors.Is(err, ErrOverloaded) matching remote admission-control
// sheds (HTTP 429), as the older string-flattened errors did by wrapping.
func (e *StatusError) Is(target error) bool {
	return target == ErrOverloaded && e.Status == http.StatusTooManyRequests
}

// Temporary reports whether the status names a transient condition worth
// retrying: shed (429), or an unavailable/overwhelmed hop (502, 503, 504).
func (e *StatusError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// NewStatusError drains (a prefix of) a non-2xx response's body into a
// StatusError. Shared with the gateway's backend classification.
func NewStatusError(resp *http.Response) *StatusError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &StatusError{
		Status:     resp.StatusCode,
		RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After")),
		Msg:        strings.TrimSpace(string(msg)),
	}
}

// ParseRetryAfter parses a Retry-After header value (delay-seconds or
// HTTP-date); 0 means absent or unparsable.
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(0, time.Until(t))
	}
	return 0
}

// RetryPolicy bounds the Client's shed-aware retry loop. Retries are
// attempted only for transient failures — transport errors and Temporary
// statuses — with capped exponential backoff, jittered by a deterministic
// seedable RNG, honoring the server's Retry-After when it is longer, and
// never sleeping past the request context's deadline budget.
type RetryPolicy struct {
	// MaxRetries is how many additional attempts follow a failed first one.
	MaxRetries int
	// BaseBackoff is the first retry's backoff before jitter (default 10ms);
	// each further retry doubles it up to MaxBackoff (default 500ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter RNG, so tests can fix the backoff schedule
	// (0 uses seed 1).
	Seed int64
}

type retryState struct {
	policy RetryPolicy
	mu     sync.Mutex
	rng    *rand.Rand
}

// backoff is the jittered, capped wait before retry number attempt (1-based):
// min(MaxBackoff, BaseBackoff<<(attempt-1)) scaled by a uniform [0.5, 1.5).
func (r *retryState) backoff(attempt int) time.Duration {
	d := min(r.policy.MaxBackoff, r.policy.BaseBackoff<<(attempt-1))
	r.mu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// Client talks to a Server, fleet, or gateway over HTTP. Its Parse method
// implements eval.Decoder, so an evaluation harness can score a remote
// parser through the full batched serving path. A context deadline is
// propagated to the server as a deadline-budget header (DeadlineHeader), and
// WithRetry arms transparent shed-aware retry.
type Client struct {
	base  string
	hc    *http.Client
	retry *retryState
}

// NewClient returns a client for a server base URL (e.g.
// "http://127.0.0.1:8080"). A trailing slash is trimmed.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()},
	}
}

// NewTransport clones http.DefaultTransport with a per-host idle pool sized
// for a hop that sends many concurrent requests to a few servers (Client, the
// gateway's proxy). The default keeps 2 idle connections per host, so the
// third concurrent request to one backend dials a new connection on every
// round.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	t.MaxIdleConns = 256
	return t
}

// WithRetry arms the client's retry loop and returns the client (chainable
// off NewClient). Not safe to call concurrently with in-flight requests.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	c.retry = &retryState{policy: p, rng: rand.New(rand.NewSource(seed))}
	return c
}

// ParseRequestCtx sends one parse request and decodes the reply, retrying
// transient failures when the client was armed with WithRetry.
func (c *Client) ParseRequestCtx(ctx context.Context, req ParseRequest) (ParseResponse, error) {
	resp, err := c.parseOnce(ctx, req)
	if err == nil || c.retry == nil {
		return resp, err
	}
	for attempt := 1; attempt <= c.retry.policy.MaxRetries; attempt++ {
		if !retryable(err) {
			return resp, err
		}
		wait := c.retry.backoff(attempt)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > wait {
			wait = se.RetryAfter // the server named its price; honor it
		}
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
			return resp, err // budget-bounded: don't sleep past the deadline
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return resp, err
		}
		if resp, err = c.parseOnce(ctx, req); err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// retryable reports whether an attempt's failure is transient: transport
// errors are (connection refused/reset, truncated replies), Temporary HTTP
// statuses are, an exhausted deadline budget or canceled context is not.
func retryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	return true
}

// parseOnce is one attempt: marshal, send (stamping the remaining deadline
// budget), classify the status, decode.
func (c *Client) parseOnce(ctx context.Context, req ParseRequest) (ParseResponse, error) {
	var resp ParseResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/parse", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	SetDeadlineHeader(hreq.Header, ctx)
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return resp, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return resp, NewStatusError(hresp)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// ParseSentence parses a raw sentence (server-side tokenization).
func (c *Client) ParseSentence(ctx context.Context, sentence string) (ParseResponse, error) {
	return c.ParseRequestCtx(ctx, ParseRequest{Sentence: sentence})
}

// ParseWords parses a pre-tokenized sentence.
func (c *Client) ParseWords(ctx context.Context, words []string) ([]string, error) {
	resp, err := c.ParseRequestCtx(ctx, ParseRequest{Words: words})
	if err != nil {
		return nil, err
	}
	return resp.Tokens, nil
}

// Parse implements eval.Decoder; transport errors decode to nil (scored as
// wrong), keeping evaluation total-preserving.
//
//genielint:ctx-root interface adapter: the eval.Decoder contract has no ctx parameter
func (c *Client) Parse(words []string) []string {
	out, err := c.ParseWords(context.Background(), words)
	if err != nil {
		return nil
	}
	return out
}

// ParseSkillCtx parses a pre-tokenized sentence against one skill of a
// fleet server (the router rejects unknown skills with 404).
func (c *Client) ParseSkillCtx(ctx context.Context, skill string, words []string) (ParseResponse, error) {
	return c.ParseRequestCtx(ctx, ParseRequest{Skill: skill, Words: words})
}

// ParseSkill implements eval.SkillDecoder against a fleet server; transport
// errors decode to nil (scored as wrong), like Parse.
//
//genielint:ctx-root interface adapter: the eval.SkillDecoder contract has no ctx parameter
func (c *Client) ParseSkill(skill string, words []string) []string {
	resp, err := c.ParseSkillCtx(context.Background(), skill, words)
	if err != nil {
		return nil
	}
	return resp.Tokens
}

// Skills fetches a fleet server's GET /skills.
func (c *Client) Skills(ctx context.Context) (SkillsResponse, error) {
	var out SkillsResponse
	err := c.getJSON(ctx, "/skills", &out)
	return out, err
}

// Metrics fetches a fleet server's GET /metrics.
func (c *Client) Metrics(ctx context.Context) (MetricsResponse, error) {
	var out MetricsResponse
	err := c.getJSON(ctx, "/metrics", &out)
	return out, err
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s: %w", path, NewStatusError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.getJSON(ctx, "/healthz", &h)
	return h, err
}
