package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// requestTimeout bounds one request, so a hung server fails the run instead
// of stalling it.
const requestTimeout = 5 * time.Second

// sendFunc submits one request at some entry point of the stack and returns
// the program tokens. prior is the previous turn's reply within the session,
// for entry points that take the decoding context explicitly; the gateway and
// the registry ignore it and use their session store.
type sendFunc func(ctx context.Context, r *request, prior []string) ([]string, error)

// result is one request as the generator saw it. Latency runs from due, the
// moment the request was scheduled to be sent, not from sent: a stall is
// charged to the requests queued behind it.
type result struct {
	req    *request
	prior  []string
	due    time.Time
	sent   time.Time
	done   time.Time
	tokens []string
	err    error
}

func (r *result) latencyMS() float64 { return float64(r.done.Sub(r.due)) / 1e6 }

// loadStats is the outcome of one load phase.
type loadStats struct {
	results    []result // requests actually sent
	skipped    int      // follow-ups never sent because an earlier turn failed
	start      time.Time
	wall       time.Duration
	backlogMax int // most requests due but not yet handed to a sender
}

// latenciesMS returns the sorted latencies of the successful requests.
func (s *loadStats) latenciesMS() []float64 {
	var out []float64
	for i := range s.results {
		if s.results[i].err == nil {
			out = append(out, s.results[i].latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// latencySegment is the equal work of one open-loop segment.
const latencySegment = 200

// segments cuts the phase's requests, in due order, into runs of
// latencySegment requests; a shorter tail joins the last run.
func (s *loadStats) segments() [][]*result {
	rs := make([]*result, len(s.results))
	for i := range s.results {
		rs[i] = &s.results[i]
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].due.Before(rs[j].due) })
	var out [][]*result
	for len(rs) >= 2*latencySegment {
		out = append(out, rs[:latencySegment])
		rs = rs[latencySegment:]
	}
	return append(out, rs)
}

// lateMS returns, sorted, how late the generator handed each request to a
// sender.
func (s *loadStats) lateMS() []float64 {
	out := make([]float64, 0, len(s.results))
	for i := range s.results {
		out = append(out, float64(s.results[i].sent.Sub(s.results[i].due))/1e6)
	}
	sort.Float64s(out)
	return out
}

// dueItem is a request waiting for its due time.
type dueItem struct {
	at    time.Time
	r     *request
	prior []string
}

type dueHeap []dueItem

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueItem)) }
func (h *dueHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func chainLen(r *request) int {
	n := 0
	for ; r != nil; r = r.next {
		n++
	}
	return n
}

// openLoop replays a request list on its schedule: one scheduler (the calling
// goroutine) releases each arrival at its due time to one of `senders`
// goroutines; when all are busy the arrival waits in the generator. A
// session's follow-up becomes due gap after the previous turn's reply. layer
// names the entry point for the trace.
func openLoop(ctx context.Context, t *traffic, senders int, gap time.Duration, send sendFunc, rec *recorder, layer string) *loadStats {
	type event struct {
		follow  *dueItem
		skipped int
	}
	jobs := make(chan dueItem)
	events := make(chan event, senders) // a sender never blocks on reporting
	slots := make([]result, len(t.all))

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				sent := time.Now()
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				toks, err := send(rctx, it.r, it.prior)
				cancel()
				done := time.Now()
				slots[it.r.id] = result{req: it.r, prior: it.prior, due: it.at, sent: sent, done: done, tokens: toks, err: err}
				if rec != nil {
					trace, root := rec.id(), rec.id()
					rec.add(rec.id(), trace, root, "loadgen.queue", it.at, sent)
					rec.add(rec.id(), trace, root, layer, sent, done)
					rec.add(root, trace, 0, "loadgen.request", it.at, done)
				}
				var ev event
				if it.r.next != nil {
					if err == nil {
						ev.follow = &dueItem{at: done.Add(gap), r: it.r.next, prior: toks}
					} else {
						ev.skipped = chainLen(it.r.next)
					}
				}
				events <- ev
			}
		}()
	}

	start := time.Now()
	stats := &loadStats{start: start}
	var follow dueHeap
	ai := 0 // next arrival
	remaining := len(t.all)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for remaining > 0 && ctx.Err() == nil {
		// The next request is the earlier of the next arrival and the
		// earliest pending follow-up.
		var head dueItem
		fromFollow, have := false, false
		if ai < len(t.arrivals) {
			head, have = dueItem{at: start.Add(time.Duration(t.arrivals[ai].dueNS)), r: t.arrivals[ai]}, true
		}
		if len(follow) > 0 && (!have || follow[0].at.Before(head.at)) {
			head, fromFollow, have = follow[0], true, true
		}
		var out chan dueItem
		var wake <-chan time.Time
		if have {
			if wait := time.Until(head.at); wait > 0 {
				timer.Reset(wait)
				wake = timer.C
			} else {
				out = jobs
			}
		}
		select {
		case out <- head:
			if fromFollow {
				heap.Pop(&follow)
			} else {
				ai++
			}
			// Backlog: what is already due behind the request just released.
			now := time.Now()
			backlog := 0
			for k := ai; k < len(t.arrivals) && !start.Add(time.Duration(t.arrivals[k].dueNS)).After(now); k++ {
				backlog++
			}
			for _, f := range follow {
				if !f.at.After(now) {
					backlog++
				}
			}
			stats.backlogMax = max(stats.backlogMax, backlog)
		case <-wake:
		case ev := <-events:
			remaining -= 1 + ev.skipped
			stats.skipped += ev.skipped
			if ev.follow != nil {
				heap.Push(&follow, *ev.follow)
			}
		case <-ctx.Done():
		}
		if wake != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	close(jobs)
	wg.Wait()
	stats.wall = time.Since(start)
	for i := range slots {
		if slots[i].req != nil {
			stats.results = append(stats.results, slots[i])
		}
	}
	return stats
}

// closedLoop runs `clients` callers back to back for d: each takes the next
// unit of the list (a request, or a session whose turns it sends one after
// the other) as soon as its previous one completed.
func closedLoop(ctx context.Context, t *traffic, clients int, d time.Duration, send sendFunc) *loadStats {
	var next atomic.Int64
	perClient := make([][]result, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(t.arrivals) {
					return
				}
				var prior []string
				for r := t.arrivals[i]; r != nil; r = r.next {
					sent := time.Now()
					rctx, cancel := context.WithTimeout(ctx, requestTimeout)
					toks, err := send(rctx, r, prior)
					cancel()
					perClient[c] = append(perClient[c], result{req: r, prior: prior, due: sent, sent: sent, done: time.Now(), tokens: toks, err: err})
					if err != nil {
						break
					}
					prior = toks
				}
			}
		}(c)
	}
	wg.Wait()
	stats := &loadStats{start: start, wall: time.Since(start)}
	for _, rs := range perClient {
		stats.results = append(stats.results, rs...)
	}
	return stats
}

// rateSegment is the equal work of one closed-loop throughput segment.
const rateSegment = 100

// completionRate is the closed loop's completions per second: the upper
// quartile over segments of rateSegment consecutive completions (see
// upperQuartile).
func completionRate(s *loadStats) float64 {
	var done []time.Time
	for i := range s.results {
		if s.results[i].err == nil {
			done = append(done, s.results[i].done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	for i := rateSegment; i < len(done); i += rateSegment {
		rates = append(rates, rateSegment/done[i].Sub(done[i-rateSegment]).Seconds())
	}
	if len(rates) == 0 {
		return float64(len(done)) / s.wall.Seconds()
	}
	return upperQuartile(rates)
}

// httpSender posts to a /parse endpoint (gateway or fleet) the way a client
// of the system would, naming the session in the X-Genie-Session header.
type httpSender struct {
	base string
	hc   *http.Client
}

// newHTTPSender builds a client that holds at most conns keep-alive
// connections to the server.
func newHTTPSender(base string, conns int) *httpSender {
	return &httpSender{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
	}}}
}

func (h *httpSender) close() { h.hc.CloseIdleConnections() }

func (h *httpSender) send(ctx context.Context, r *request, _ []string) ([]string, error) {
	body, err := json.Marshal(serve.ParseRequest{Skill: r.skill, Words: r.words})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/parse", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.session != "" {
		req.Header.Set(serve.SessionHeader, r.session)
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("POST /parse: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var pr serve.ParseResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, err
	}
	// Drain to the end of the body so the keep-alive connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return pr.Tokens, nil
}
