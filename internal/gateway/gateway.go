// Package gateway is the fault-tolerant routing tier in front of N fleet
// processes (internal/fleet): the layer that takes Genie from one
// multi-skill process per box to a horizontally scaled fleet that survives
// backend failure. It consistent-hash-routes POST /parse by skill across
// the membership with R-way replication, picks the least-loaded ready
// replica using the fleet's own /metrics queue-depth signal, and maintains
// health-checked membership: periodic /healthz + /skills + /metrics probes,
// consecutive-failure ejection, and half-open circuit-breaker readmission.
//
// The resilience contract per request: a deadline budget (propagated via
// serve.DeadlineHeader and honored down at each backend's Batcher, which
// answers 408 before wasting a decode), shed-aware retry across replicas
// (honoring Retry-After, capped exponential backoff with deterministic
// seedable jitter, bounded by the retry budget and the deadline), optional
// hedged requests to a second replica after a p99-derived delay, and
// graceful degradation — a skill with no live replica answers 503 and shows
// as "degraded" on the gateway's /skills, falling back across skills only
// when explicitly enabled. Parsing is a pure function of the snapshot, so
// retrying and hedging POST /parse is safe.
//
// Layering: internal/serve owns one parser's serving mechanics and the wire
// types, internal/fleet owns one process's many-parser control plane, and
// this package owns the many-process concerns — membership, health, routing
// policy. It speaks only HTTP to its backends; internal/faultinject proves
// the contract by injecting faults on that boundary.
//
//genielint:ctx-strict
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Options tune the gateway tier.
type Options struct {
	// Replication is how many distinct backends serve each skill (default 2,
	// capped by the membership size).
	Replication int
	// ProbeInterval is the health-check period (default 500ms); ProbeTimeout
	// bounds one probe's round trips (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the consecutive-failure count that ejects a backend
	// (default 3).
	FailThreshold int
	// RetryBudget is how many additional attempts may follow a failed first
	// one (0 means the default of 2; a negative value disables retries).
	RetryBudget int
	// BaseBackoff/MaxBackoff shape the capped exponential retry backoff
	// (defaults 5ms/200ms) before jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Hedge arms hedged requests: if the primary attempt is still in flight
	// after the hedge delay, a second replica gets the same request and the
	// first success wins. HedgeAfter fixes the delay; 0 derives it from the
	// primary's probed p99 (2×p99, clamped to [1ms, 500ms], 50ms when no
	// signal yet).
	Hedge      bool
	HedgeAfter time.Duration
	// CrossSkillFallback routes a request whose skill has no live replica to
	// any healthy backend with the skill field cleared, letting that fleet's
	// scored fallback answer with its best other skill. Off by default:
	// degraded skills answer 503.
	CrossSkillFallback bool
	// Seed seeds the retry-jitter RNG (0 uses 1), so tests can fix the
	// backoff schedule.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	} else if o.RetryBudget == 0 {
		o.RetryBudget = 2
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 5 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 200 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// virtualNodes is the number of ring points each backend projects.
const virtualNodes = 64

// newTransport clones http.DefaultTransport with a per-host idle pool sized
// for a hop that sends many concurrent requests to a few backends. The
// default keeps 2 idle connections per host, so the third concurrent request
// to one backend dials a new connection on every round.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	t.MaxIdleConns = 256
	return t
}

// StatusDegraded is the gateway /skills status for a skill with no live
// replica.
const StatusDegraded = "degraded"

// Gateway is the routing tier. Membership is the backend list New was
// given: the slice (sorted by address) and the ring over it are built once
// and never change (health filters at candidate selection), and the probe
// loop runs until Close.
type Gateway struct {
	opt   Options
	hc    *http.Client
	start time.Time

	backends []*backend
	ring     *ring

	rngMu sync.Mutex
	rng   *rand.Rand

	lat       serve.LatencyRing
	requests  atomic.Int64 // client-facing /parse requests
	retries   atomic.Int64 // additional attempts spent
	hedges    atomic.Int64 // hedge attempts launched
	hedgeWins atomic.Int64 // hedges that answered first
	fallbacks atomic.Int64 // cross-skill fallbacks taken
	degraded  atomic.Int64 // requests that found no live replica
	sticky    atomic.Int64 // session-affine requests (X-Genie-Session routing)

	mux      *http.ServeMux
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lifeCtx is the gateway's lifetime context: probes derive their
	// per-attempt timeouts from it, so Close cancels in-flight probes
	// instead of abandoning them to their own timers.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// New assembles a gateway over a backend list (blank and repeated addresses
// are dropped), probes every backend once synchronously (so routing has a
// health and skill picture before the first request), and starts the probe
// loop.
//
//genielint:ctx-root process-lifetime root: the probe loop outlives any request; Close cancels it
func New(backendAddrs []string, opt Options) *Gateway {
	opt = opt.withDefaults()
	g := &Gateway{
		opt:   opt,
		hc:    &http.Client{Transport: newTransport()},
		start: time.Now(),
		rng:   rand.New(rand.NewSource(opt.Seed)),
		mux:   http.NewServeMux(),
		stop:  make(chan struct{}),
	}
	g.lifeCtx, g.lifeCancel = context.WithCancel(context.Background())
	var addrs []string
	for _, a := range backendAddrs {
		if addr := strings.TrimRight(strings.TrimSpace(a), "/"); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	slices.Sort(addrs)
	for _, addr := range slices.Compact(addrs) {
		g.backends = append(g.backends, newBackend(addr))
	}
	g.ring = buildRing(g.backends, virtualNodes)
	g.ProbeOnce()
	g.mux.HandleFunc("/parse", g.handleParse)
	g.mux.HandleFunc("/skills", g.handleSkills)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/healthz", g.handleHealth)
	g.wg.Add(1)
	go g.probeLoop()
	return g
}

// Handler returns the HTTP handler (for http.Server or httptest).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close stops the probe loop, cancels in-flight probes and drops the idle
// backend connections.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() {
		close(g.stop)
		g.lifeCancel()
	})
	g.wg.Wait()
	g.hc.CloseIdleConnections()
}

func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.opt.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.ProbeOnce()
		}
	}
}

// ProbeOnce probes every backend once, in parallel, applying the health
// state machine. Exported so tests can step health deterministically.
func (g *Gateway) ProbeOnce() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe is one backend's health check: /healthz must answer OK, and /skills
// + /metrics must parse (they are the routing signal — a backend the
// gateway cannot see skills for cannot take skill traffic). Any failure
// counts toward ejection.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(g.lifeCtx, g.opt.ProbeTimeout)
	defer cancel()
	ejections := b.ejections.Load()
	var h serve.HealthResponse
	var sk serve.SkillsResponse
	var m serve.MetricsResponse
	if err := g.getJSON(ctx, b, "/healthz", &h); err != nil || !h.OK {
		b.recordFailure(int32(g.opt.FailThreshold))
		return
	}
	if err := g.getJSON(ctx, b, "/skills", &sk); err != nil {
		b.recordFailure(int32(g.opt.FailThreshold))
		return
	}
	if err := g.getJSON(ctx, b, "/metrics", &m); err != nil {
		b.recordFailure(int32(g.opt.FailThreshold))
		return
	}
	skills := make(map[string]string, len(sk.Skills))
	for _, s := range sk.Skills {
		skills[s.Name] = s.Status
	}
	depth := make(map[string]int64, len(m.Skills))
	p99 := make(map[string]float64, len(m.Skills))
	for _, s := range m.Skills {
		depth[s.Name] = s.QueueDepth
		p99[s.Name] = s.P99MS
	}
	b.updateProbe(skills, depth, p99)
	b.recordSuccess(ejections)
}

func (g *Gateway) getJSON(ctx context.Context, b *backend, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway: %s%s: %s", b.addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jitter scales a backoff by a deterministic uniform [0.5, 1.5).
func (g *Gateway) jitter(d time.Duration) time.Duration {
	g.rngMu.Lock()
	f := 0.5 + g.rng.Float64()
	g.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}
