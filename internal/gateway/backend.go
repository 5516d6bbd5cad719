package gateway

import (
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// State is a backend's health state. The machine is a circuit breaker fed
// by both probes and proxied traffic:
//
//	Healthy --FailThreshold consecutive failures--> Ejected
//	Ejected --1 success (probe)-----------------> HalfOpen
//	HalfOpen --1 more success-------------------> Healthy (readmitted)
//	HalfOpen --any failure----------------------> Ejected
//
// Ejected backends receive no traffic but keep being probed at the probe
// interval, so a restored backend is readmitted within two probe intervals
// (one success to go half-open, one to close the circuit). Half-open
// backends are routable — they take trial traffic, preferred below healthy
// replicas — and a single failure trips them straight back to ejected.
type State int32

const (
	Healthy State = iota
	HalfOpen
	Ejected
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case HalfOpen:
		return "half-open"
	case Ejected:
		return "ejected"
	}
	return "unknown"
}

// backend is one fleet process behind the gateway: its address, health
// state, and the serving signal from the last successful probe (/skills
// membership, /metrics queue depths and p99 for least-loaded pick and
// hedge-delay derivation).
type backend struct {
	addr string // base URL, trailing slash trimmed

	state     atomic.Int32
	fails     atomic.Int32 // consecutive failures toward ejection
	ejections atomic.Int64
	readmits  atomic.Int64
	requests  atomic.Int64  // proxied /parse attempts
	failures  atomic.Int64  // failed proxied attempts (transport or 5xx)
	ewmaBits  atomic.Uint64 // float64 bits: EWMA of successful request latency, ms (0 = no signal)

	mu        sync.Mutex
	skills    map[string]string  // skill -> lifecycle status, last /skills probe
	depth     map[string]int64   // skill -> queue depth, last /metrics probe
	p99       map[string]float64 // skill -> p99 ms, last /metrics probe
	lastProbe time.Time
}

func newBackend(addr string) *backend {
	return &backend{addr: addr, skills: map[string]string{}, depth: map[string]int64{}, p99: map[string]float64{}}
}

func (b *backend) healthState() State { return State(b.state.Load()) }

// routable reports whether the router may pick this backend (healthy, or
// half-open trial traffic).
func (b *backend) routable() bool { return b.healthState() != Ejected }

// servesSkill reports whether the backend's last /skills probe listed the
// skill as serving (ready, or reloading — which serves the old snapshot).
func (b *backend) servesSkill(name string) bool {
	b.mu.Lock()
	status, ok := b.skills[name]
	b.mu.Unlock()
	return ok && (status == "ready" || status == "reloading")
}

// skillNames snapshots the skills the backend listed, with their status.
func (b *backend) skillNames() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.skills))
	for k, v := range b.skills {
		out[k] = v
	}
	return out
}

// queueDepth is the probed queue depth for one skill ("" sums all skills);
// the least-loaded pick orders replicas by it.
func (b *backend) queueDepth(skill string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if skill != "" {
		return b.depth[skill]
	}
	var sum int64
	for _, d := range b.depth {
		sum += d
	}
	return sum
}

// skillP99 is the probed p99 latency (ms) for a skill, 0 when unknown.
func (b *backend) skillP99(skill string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p99[skill]
}

// updateProbe installs a successful probe's serving signal.
func (b *backend) updateProbe(skills map[string]string, depth map[string]int64, p99 map[string]float64) {
	b.mu.Lock()
	b.skills, b.depth, b.p99 = skills, depth, p99
	b.lastProbe = time.Now()
	b.mu.Unlock()
}

// ewmaAlpha weights each new latency observation in the backend's moving
// average. 0.2 converges within a handful of requests yet rides out single
// outliers.
const ewmaAlpha = 0.2

// observeLatency folds one successful proxied request's round trip into the
// backend's latency EWMA — the live per-traffic signal hedge delays prefer
// over the probe-interval p99.
func (b *backend) observeLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := b.ewmaBits.Load()
		next := ms
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*ms
		}
		if b.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// latencyEWMA returns the smoothed successful-request latency in ms
// (0 = no traffic observed yet).
func (b *backend) latencyEWMA() float64 {
	return math.Float64frombits(b.ewmaBits.Load())
}

// recordFailure feeds the circuit breaker: FailThreshold consecutive
// failures eject a healthy backend; any failure in half-open re-ejects
// immediately.
func (b *backend) recordFailure(threshold int32) {
	n := b.fails.Add(1)
	switch b.healthState() {
	case Healthy:
		if n >= threshold {
			b.state.Store(int32(Ejected))
			b.ejections.Add(1)
			slog.Warn("gateway: ejected after consecutive failures", "backend", b.addr, "failures", n)
		}
	case HalfOpen:
		b.state.Store(int32(Ejected))
		b.ejections.Add(1)
		slog.Warn("gateway: half-open trial failed, re-ejected", "backend", b.addr)
	}
}

// recordSuccess resets the failure streak and walks the readmission path:
// ejected goes half-open on its first success, half-open closes the circuit
// on the next. ejections is the backend's ejection count when the probe or
// request that succeeded was sent: a reply to one sent before the latest
// ejection (a request in flight when the backend died) is no evidence the
// backend is back, so it changes nothing.
func (b *backend) recordSuccess(ejections int64) {
	if b.ejections.Load() != ejections {
		return
	}
	b.fails.Store(0)
	switch b.healthState() {
	case Ejected:
		b.state.Store(int32(HalfOpen))
		slog.Info("gateway: probe succeeded, half-open", "backend", b.addr)
	case HalfOpen:
		b.state.Store(int32(Healthy))
		b.readmits.Add(1)
		slog.Info("gateway: readmitted", "backend", b.addr)
	}
}
