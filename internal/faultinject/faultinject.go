// Package faultinject is a chaos proxy for HTTP backends: it sits between
// the gateway and a real fleet process and injects the failure modes the
// resilience contract must survive — dropped connections, added latency,
// synthetic 5xx, truncated reply bodies, and hangs. Tests (and the CI chaos
// smoke) flip the fault atomically mid-load and assert the gateway's
// retry/eject/readmit behavior; the proxy itself stays dumb and
// deterministic.
package faultinject

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the injected fault.
type Mode string

const (
	// Pass proxies untouched.
	Pass Mode = "pass"
	// Drop aborts the connection before any response bytes (the client sees
	// a transport error, as if the process died mid-accept).
	Drop Mode = "drop"
	// Delay sleeps Fault.Delay before proxying (slow backend; exercises
	// hedging and deadline budgets).
	Delay Mode = "delay"
	// Status answers Fault.Status with an empty body instead of proxying
	// (synthetic 5xx; 0 means 500).
	Status Mode = "status"
	// Truncate proxies but cuts the reply body after Fault.TruncateBytes
	// bytes and aborts the connection (torn response).
	Truncate Mode = "truncate"
	// Hang accepts the request and blocks until the client gives up or the
	// fault changes (stuck process; exercises probe timeouts and hedges).
	Hang Mode = "hang"
)

// Fault is the active injection, swapped atomically via SetFault.
type Fault struct {
	Mode          Mode          `json:"mode"`
	Delay         time.Duration `json:"-"`
	DelayMS       int           `json:"delay_ms,omitempty"`
	Status        int           `json:"status,omitempty"`
	TruncateBytes int           `json:"truncate_bytes,omitempty"`
}

// Stats counts requests per outcome since the proxy started.
type Stats struct {
	Passed    int64 `json:"passed"`
	Dropped   int64 `json:"dropped"`
	Delayed   int64 `json:"delayed"`
	Statused  int64 `json:"statused"`
	Truncated int64 `json:"truncated"`
	Hung      int64 `json:"hung"`
}

// Proxy is the chaos proxy. Zero value is not usable; build with New.
type Proxy struct {
	rp    *httputil.ReverseProxy
	fault atomic.Value // Fault

	passed, dropped, delayed, statused, truncated, hung atomic.Int64

	mu      sync.Mutex
	release chan struct{} // closed to free hung requests
}

// New builds a proxy forwarding to target (a base URL), starting in Pass.
func New(target string) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	p := &Proxy{rp: httputil.NewSingleHostReverseProxy(u), release: make(chan struct{})}
	// Swallow the reverse proxy's default error logging; the tests inspect
	// outcomes through the client, not stderr.
	p.rp.ErrorLog = nil
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		http.Error(w, "faultinject: upstream: "+err.Error(), http.StatusBadGateway)
	}
	p.fault.Store(Fault{Mode: Pass})
	return p, nil
}

// SetFault swaps the active fault and frees any requests hung on the
// previous one.
func (p *Proxy) SetFault(f Fault) {
	if f.Mode == "" {
		f.Mode = Pass
	}
	if f.DelayMS > 0 && f.Delay == 0 {
		f.Delay = time.Duration(f.DelayMS) * time.Millisecond
	}
	p.fault.Store(f)
	p.mu.Lock()
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// CurrentFault returns the active fault.
func (p *Proxy) CurrentFault() Fault { return p.fault.Load().(Fault) }

// Stats snapshots the per-outcome counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Passed:    p.passed.Load(),
		Dropped:   p.dropped.Load(),
		Delayed:   p.delayed.Load(),
		Statused:  p.statused.Load(),
		Truncated: p.truncated.Load(),
		Hung:      p.hung.Load(),
	}
}

// ServeHTTP applies the active fault to one request.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := p.CurrentFault()
	switch f.Mode {
	case Drop:
		p.dropped.Add(1)
		panic(http.ErrAbortHandler) // net/http aborts the connection
	case Delay:
		p.delayed.Add(1)
		select {
		case <-time.After(f.Delay):
		case <-r.Context().Done():
			return
		}
		p.rp.ServeHTTP(w, r)
	case Status:
		p.statused.Add(1)
		code := f.Status
		if code == 0 {
			code = http.StatusInternalServerError
		}
		http.Error(w, "faultinject: injected status", code)
	case Truncate:
		p.truncated.Add(1)
		p.rp.ServeHTTP(&truncatingWriter{w: w, remain: f.TruncateBytes}, r)
		panic(http.ErrAbortHandler) // tear the connection after the partial body
	case Hang:
		p.hung.Add(1)
		p.mu.Lock()
		release := p.release
		p.mu.Unlock()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	default:
		p.passed.Add(1)
		p.rp.ServeHTTP(w, r)
	}
}

// truncatingWriter forwards at most remain body bytes, then swallows the
// rest; the caller tears the connection so the client sees a short read.
type truncatingWriter struct {
	w      http.ResponseWriter
	remain int
}

func (t *truncatingWriter) Header() http.Header { return t.w.Header() }

func (t *truncatingWriter) WriteHeader(code int) { t.w.WriteHeader(code) }

func (t *truncatingWriter) Write(b []byte) (int, error) {
	if t.remain <= 0 {
		return len(b), nil // swallow, pretend written
	}
	n := len(b)
	if n > t.remain {
		n = t.remain
	}
	if _, err := t.w.Write(b[:n]); err != nil {
		return 0, err
	}
	t.remain -= n
	if f, ok := t.w.(http.Flusher); ok {
		f.Flush() // force the partial bytes onto the wire before the abort
	}
	return len(b), nil
}

// Server wraps a Proxy in an httptest.Server for tests.
type Server struct {
	*Proxy
	ts *httptest.Server
}

// NewServer starts a chaos proxy in front of target on an ephemeral port.
func NewServer(target string) (*Server, error) {
	p, err := New(target)
	if err != nil {
		return nil, err
	}
	return &Server{Proxy: p, ts: httptest.NewServer(p)}, nil
}

// URL is the proxy's base URL (hand this to the gateway as a backend).
func (s *Server) URL() string { return s.ts.URL }

// Close shuts the listener down (in-flight hangs are released first).
func (s *Server) Close() {
	s.SetFault(Fault{Mode: Pass})
	s.ts.Close()
}

// ControlHandler exposes the proxy over HTTP for the CLI chaos harness:
// POST /fault installs a Fault from JSON, GET /fault and GET /stats report.
func (p *Proxy) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fault", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var f Fault
			if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
				http.Error(w, "bad fault: "+err.Error(), http.StatusBadRequest)
				return
			}
			p.SetFault(f)
			writeJSON(w, p.CurrentFault())
		case http.MethodGet:
			writeJSON(w, p.CurrentFault())
		default:
			http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
