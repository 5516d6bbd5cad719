package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/serve"
)

// routeResult is one proxied reply: the backend's HTTP status and body pass
// through to the client verbatim, plus which backend answered and how many
// attempts the request cost.
type routeResult struct {
	status     int
	body       []byte
	backend    string
	attempts   int
	retryAfter time.Duration // the reply's Retry-After hint (429/503)
}

// errDegraded marks a skill with no live replica (HTTP 503 + "degraded" on
// the gateway's /skills).
var errDegraded = errors.New("gateway: skill degraded, no live replica")

// candidates is the routable replica set for one skill, best pick first:
// the skill's R ring replicas, filtered to routable backends whose last
// probe listed the skill serving, ordered healthy before half-open, then by
// probed queue depth (least-loaded), then by address for determinism. An
// empty skill routes across the whole membership (the fleet's own scored
// fallback picks the answering skill).
func (g *Gateway) candidates(skill string) []*backend {
	var cands []*backend
	if skill == "" {
		for _, b := range g.backends {
			if b.routable() && len(b.skillNames()) > 0 {
				cands = append(cands, b)
			}
		}
	} else {
		for _, b := range g.ring.replicas(skill, g.opt.Replication) {
			if b.routable() && b.servesSkill(skill) {
				cands = append(cands, b)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := cands[i].healthState(), cands[j].healthState()
		if si != sj {
			return si < sj // Healthy < HalfOpen
		}
		di, dj := cands[i].queueDepth(skill), cands[j].queueDepth(skill)
		if di != dj {
			return di < dj
		}
		return cands[i].addr < cands[j].addr
	})
	return cands
}

// stickyOrder reorders a session-carrying request's candidates by rendezvous
// hash of (session, backend), so every request of a dialogue session routes
// to the same live replica — where the fleet's session store holds the
// previous turn — regardless of queue-depth churn. The ordering is a full
// deterministic preference chain, not a single pin: when the session's
// first-choice backend is ejected, all its sessions fail over together to
// one stable second choice, and return as soon as readmission puts the
// backend back among the candidates.
func stickyOrder(cands []*backend, session string) {
	if session == "" || len(cands) < 2 {
		return
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return hashKey(session+"@"+cands[i].addr) > hashKey(session+"@"+cands[j].addr)
	})
}

// route answers one client request end to end: replica routing with retry
// and hedging, then — when the skill has no live replica — either the
// cross-skill fallback or a degraded 503.
func (g *Gateway) route(ctx context.Context, req serve.ParseRequest, session string) (routeResult, error) {
	g.requests.Add(1)
	if session != "" {
		g.sticky.Add(1)
	}
	res, err := g.routeReplicas(ctx, req, session)
	if !errors.Is(err, errDegraded) {
		return res, err
	}
	g.degraded.Add(1)
	if g.opt.CrossSkillFallback && req.Skill != "" {
		fb := req
		fb.Skill = "" // let a healthy fleet's scored fallback answer
		fres, ferr := g.routeReplicas(ctx, fb, session)
		if ferr == nil {
			g.fallbacks.Add(1)
			slog.Warn("gateway: skill degraded, answered by cross-skill fallback", "skill", req.Skill, "backend", fres.backend)
			return fres, nil
		}
	}
	return res, err
}

// routeReplicas is the retry loop over a skill's replica set. Each
// iteration re-snapshots the candidates (health and load move under
// traffic), prefers untried replicas, backs off with jitter between attempts —
// stretched to the server's Retry-After when every candidate has shed — and
// gives up when the retry budget or the deadline budget runs out. The first
// attempt may hedge.
func (g *Gateway) routeReplicas(ctx context.Context, req serve.ParseRequest, session string) (routeResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return routeResult{}, err
	}
	tried := map[*backend]bool{}
	var last routeResult
	var lastErr error
	routed := false
	for attempt := 0; attempt <= g.opt.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		cands := g.candidates(req.Skill)
		if len(cands) == 0 {
			break
		}
		stickyOrder(cands, session)
		routed = true
		pick := cands[0]
		backup := (*backend)(nil)
		for _, c := range cands {
			if !tried[c] {
				pick = c
				break
			}
		}
		for _, c := range cands {
			if c != pick {
				backup = c
				break
			}
		}
		var res routeResult
		if attempt == 0 && g.opt.Hedge && backup != nil {
			res, err = g.hedgedAttempt(ctx, pick, backup, req.Skill, body, session)
		} else {
			res, err = g.attempt(ctx, pick, body, session)
		}
		res.attempts = attempt + 1
		if err == nil && res.status == http.StatusOK {
			return res, nil
		}
		if err == nil && terminalStatus(res.status) {
			// The backend answered with a definitive client error (400, 404,
			// 408...): pass it through rather than burning retries.
			return res, nil
		}
		tried[pick] = true
		last, lastErr = res, err
		if attempt == g.opt.RetryBudget {
			break
		}
		g.retries.Add(1)
		wait := g.jitter(min(g.opt.MaxBackoff, g.opt.BaseBackoff<<attempt))
		if err == nil && res.status == http.StatusTooManyRequests {
			if ra := res.retryAfter; ra > wait && !anyUntried(cands, tried) {
				wait = ra // every replica shed: honor the server's price
			}
		}
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
			lastErr = context.DeadlineExceeded
			break
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop() // top of the next iteration exits on ctx.Err()
		}
	}
	if !routed {
		return routeResult{}, fmt.Errorf("%w: %q", errDegraded, req.Skill)
	}
	if lastErr != nil && (errors.Is(lastErr, context.DeadlineExceeded) || ctx.Err() != nil) {
		return last, context.DeadlineExceeded
	}
	if lastErr != nil {
		return last, fmt.Errorf("gateway: all attempts failed: %w", lastErr)
	}
	return last, nil
}

// terminalStatus reports statuses that retrying cannot improve: anything
// below 500 except a shed (429 — another replica may have capacity).
func terminalStatus(status int) bool {
	return status < 500 && status != http.StatusTooManyRequests
}

// parseRetryAfter parses a Retry-After header value (delay-seconds or
// HTTP-date) into a wait clamped to serve.MaxDeadline; 0 means absent,
// unparsable, negative or non-finite. Unclamped, delay-seconds past ~9.2e9
// overflow time.Duration to a negative wait.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs < 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
			return 0
		}
		if secs >= serve.MaxDeadline.Seconds() {
			return serve.MaxDeadline
		}
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(v); err == nil {
		return min(max(0, time.Until(t)), serve.MaxDeadline)
	}
	return 0
}

func anyUntried(cands []*backend, tried map[*backend]bool) bool {
	for _, c := range cands {
		if !tried[c] {
			return true
		}
	}
	return false
}

// attempt proxies one request body to one backend and classifies the reply.
// Connection failures, truncated replies and 5xx statuses feed the circuit
// breaker; sheds (429) and not-ready (503) are backpressure, not evidence
// the process is down — probes decide those. A canceled context (a hedge
// lost its race) records nothing.
func (g *Gateway) attempt(ctx context.Context, b *backend, body []byte, session string) (routeResult, error) {
	b.requests.Add(1)
	ejections := b.ejections.Load()
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/parse", bytes.NewReader(body))
	if err != nil {
		return routeResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if session != "" {
		hreq.Header.Set(serve.SessionHeader, session)
	}
	serve.SetDeadlineHeader(hreq.Header, ctx)
	resp, err := g.hc.Do(hreq)
	if err != nil {
		if ctx.Err() == nil || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A hang that ate the deadline is a health signal; a hedge
			// cancellation is not.
			b.failures.Add(1)
			b.recordFailure(int32(g.opt.FailThreshold))
		}
		return routeResult{}, fmt.Errorf("gateway: %s: %w", b.addr, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		// Truncated or reset mid-body.
		b.failures.Add(1)
		b.recordFailure(int32(g.opt.FailThreshold))
		return routeResult{}, fmt.Errorf("gateway: %s: reading reply: %w", b.addr, err)
	}
	res := routeResult{status: resp.StatusCode, body: rb, backend: b.addr,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	switch {
	case resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable:
		b.failures.Add(1)
		b.recordFailure(int32(g.opt.FailThreshold))
	default:
		b.recordSuccess(ejections)
		if resp.StatusCode == http.StatusOK {
			// Only clean parses feed the EWMA: sheds and not-ready replies
			// return fast and would drag the hedge delay toward zero.
			b.observeLatency(time.Since(start))
		}
	}
	return res, nil
}

// hedgedAttempt fires the primary attempt and, if it is still in flight
// after the hedge delay, the same request on the backup replica; the first
// success wins and the loser's context is canceled. A hedge that loses or
// errors never surfaces to the client — the primary's outcome does.
func (g *Gateway) hedgedAttempt(ctx context.Context, primary, backup *backend, skill string, body []byte, session string) (routeResult, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res   routeResult
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2)
	go func() {
		res, err := g.attempt(cctx, primary, body, session)
		ch <- outcome{res, err, false}
	}()
	timer := time.NewTimer(g.hedgeDelay(primary, skill))
	defer timer.Stop()
	launched := false
	pending := 1
	var primaryOut *outcome
	for {
		select {
		case out := <-ch:
			pending--
			if out.err == nil && out.res.status == http.StatusOK {
				if out.hedge {
					g.hedgeWins.Add(1)
				}
				return out.res, nil
			}
			if !out.hedge {
				primaryOut = &out
			}
			if pending == 0 {
				// Both (or the only) attempts failed: surface the primary's
				// outcome so retry classification stays deterministic.
				if primaryOut != nil {
					return primaryOut.res, primaryOut.err
				}
				return out.res, out.err
			}
		case <-timer.C:
			if !launched && pending > 0 {
				launched = true
				pending++
				g.hedges.Add(1)
				go func() {
					res, err := g.attempt(cctx, backup, body, session)
					ch <- outcome{res, err, true}
				}()
			}
		case <-ctx.Done():
			return routeResult{}, ctx.Err()
		}
	}
}

// hedgeDelay is how long the primary gets before the backup is hedged:
// fixed when HedgeAfter is set; else 2× the primary's live latency EWMA —
// per-request signal that tracks load shifts between probes; else 2× the
// probed p99 for the skill. The derived delays clamp to [1ms, 500ms], and
// 50ms covers the cold start before any signal exists.
func (g *Gateway) hedgeDelay(primary *backend, skill string) time.Duration {
	if g.opt.HedgeAfter > 0 {
		return g.opt.HedgeAfter
	}
	ms := primary.latencyEWMA()
	if ms <= 0 {
		ms = primary.skillP99(skill)
	}
	if ms <= 0 {
		return 50 * time.Millisecond
	}
	d := time.Duration(2 * ms * float64(time.Millisecond))
	return min(max(d, time.Millisecond), 500*time.Millisecond)
}
