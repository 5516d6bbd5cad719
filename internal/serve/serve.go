// Package serve is the parser-serving layer: it turns a trained
// model.Parser — a pure function after training — into a long-lived service.
// It provides a work-conserving decode worker pool (Batcher) with
// bounded-queue admission control and graceful drain, where the requests
// that queued behind a busy pool decode in one model.Parser.Decode call (two
// or more rows advance in lockstep as rows of B×n tensors, one batched forward
// per decode step), an HTTP JSON front end (Server), and a trained-snapshot
// cache keyed by the Thingpedia skill-library checksum (Cache), so re-serving
// an unchanged library skips training entirely. The multi-skill fleet control plane (internal/fleet)
// composes one Batcher per skill behind a router and speaks this package's
// wire types.
//
// The layer leans on two properties established in internal/model: decoding
// is concurrency-safe (all decode state lives in pooled per-call contexts,
// so one Parser serves every worker goroutine), and parsers round-trip
// through versioned binary snapshots bit-identically (model.Save/Load).
//
//genielint:ctx-strict
package serve

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Parser is the decoding surface the serving layer needs; *model.Parser
// implements it. One call decodes a whole pulled window: the parser — not the
// batcher — splits it by context, advances each half in lockstep (a lone row
// as a batch of one), and applies the policy (greedy, beam, or greedy-first
// escalation against its fitted threshold). It stays an interface so tests
// can substitute gated, panicking and recording parsers.
type Parser interface {
	Decode(rows []model.Row, pol model.Policy) []model.Decoded
}

// Options tune the serving layer.
type Options struct {
	// MaxBatch is the most queued requests a free worker takes into one
	// decode batch (default 8).
	MaxBatch int
	// Workers is the decode worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Beam is the beam width (<= 1 decodes greedily).
	Beam int
	// MaxQueue bounds the number of admitted-but-unanswered requests
	// (queued plus in decode). A request arriving at a full queue is shed
	// immediately with ErrOverloaded instead of waiting — the HTTP layer
	// maps that to 429 + Retry-After. 0 picks the default 8×MaxBatch
	// (min 64); negative means unbounded.
	MaxQueue int
	// Adaptive (with Beam > 1) decodes greedy-first and escalates a request
	// to the beam only when its greedy confidence falls below the parser's
	// fitted threshold (model.Calibration). High-confidence traffic then
	// pays greedy latency; Stats.Escalated counts the beam re-decodes. With
	// no fitted calibration every request stays greedy.
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.Workers <= 0 {
		o.Workers = goruntime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = max(64, 8*o.MaxBatch)
	}
	return o
}

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: batcher closed")

// ErrOverloaded is returned when the batcher's admission queue is full; the
// request was shed without queueing (HTTP 429).
var ErrOverloaded = errors.New("serve: queue full, request shed")

// ErrDecodeFailed is returned when a decode panicked; the panic is recovered
// into this per-request error so one poisoned request cannot kill a worker
// goroutine and strand the rest of its window (HTTP 500).
var ErrDecodeFailed = errors.New("serve: decode failed")

// parseResult is one request's answer.
type parseResult struct {
	toks  []string
	score float64
	err   error
}

type request struct {
	ctx      context.Context // caller's deadline budget; checked before decode
	words    []string
	context  []string  // previous-turn program tokens (contextual decode)
	scored   bool      // fleet fallback: fixed-width decode, caller ranks shards by score
	admitted time.Time // when submit admitted it; the pull measures queue wait from here
	reply    chan parseResult
}

// Batcher decodes incoming parse requests on a fixed worker pool that pulls
// straight from the admission queue: a free worker takes the next request
// the moment it arrives, plus — without waiting — whatever else is already
// queued, up to MaxBatch. Requests only accumulate while every worker is
// busy, so batch size tracks load by itself: an idle batcher decodes at B=1
// with no added wait, a saturated one forms full MaxBatch windows at pull
// time. A worker decodes its whole window in one Parser.Decode call. Because
// decoding is concurrency-safe, all workers share the one trained parser,
// and distinct windows decode concurrently.
//
// Admission is bounded: at most Options.MaxQueue requests may be in flight
// (queued or decoding); beyond that a request is shed immediately with
// ErrOverloaded instead of queueing behind a slow consumer. Close drains:
// requests admitted before Close are decoded and answered on the old parser
// before the workers exit, which is what lets the fleet control plane
// hot-swap a shard without dropping in-flight requests.
type Batcher struct {
	opt    Options
	parser Parser

	in   chan request
	done chan struct{}

	closeMu   sync.RWMutex // guards closed vs. in-flight submissions
	closed    bool         // guarded by closeMu
	closeOnce sync.Once
	wg        sync.WaitGroup

	requests  atomic.Int64
	batches   atomic.Int64
	shed      atomic.Int64
	depth     atomic.Int64
	queueWait atomic.Int64   // cumulative admission→pull wait, nanoseconds
	expired   atomic.Int64   // requests whose deadline passed before decode
	failed    atomic.Int64   // requests whose decode panicked (ErrDecodeFailed)
	adaptive  atomic.Int64   // requests decoded under the adaptive policy
	escalated atomic.Int64   // of those, requests re-decoded with the beam
	hist      []atomic.Int64 // batch-size histogram, index = size-1
}

// NewBatcher starts the worker pool.
func NewBatcher(p Parser, opt Options) *Batcher {
	opt = opt.withDefaults()
	inCap := opt.MaxQueue
	if inCap < 0 {
		inCap = 0 // unbounded admission: submitters block on the handoff instead
	}
	b := &Batcher{
		opt:    opt,
		parser: p,
		in:     make(chan request, inCap),
		done:   make(chan struct{}),
		hist:   make([]atomic.Int64, opt.MaxBatch),
	}
	for w := 0; w < opt.Workers; w++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// window is one worker's reusable scratch: the pulled requests, the scored
// ones among them (they decode under their own policy), and the rows handed
// to Decode.
type window struct {
	batch, scored []request
	rows          []model.Row
}

// worker is the work-conserving pull loop: block for one request, take
// whatever else is already queued (never waiting for company), decode,
// repeat. After Close nothing new can be admitted (Close flips closed under
// the write lock before closing done), so a worker that finds the queue
// empty once done is closed may exit: every admitted request has been pulled.
func (b *Batcher) worker() {
	defer b.wg.Done()
	w := &window{batch: make([]request, 0, b.opt.MaxBatch)}
	for {
		var first request
		select {
		case first = <-b.in:
		case <-b.done:
			select {
			case first = <-b.in:
			default:
				return
			}
		}
		w.batch = append(w.batch[:0], first)
	fill:
		for len(w.batch) < b.opt.MaxBatch {
			select {
			case r := <-b.in:
				w.batch = append(w.batch, r)
			default:
				break fill
			}
		}
		n := len(w.batch)
		b.batches.Add(1)
		b.requests.Add(int64(n))
		b.hist[n-1].Add(1)
		pulled := time.Now()
		var waited time.Duration
		for _, r := range w.batch {
			waited += pulled.Sub(r.admitted)
		}
		b.queueWait.Add(int64(waited))
		b.serveBatch(w)
		// Drop the served requests so an idle worker pins no caller memory.
		clear(w.batch)
		clear(w.scored)
		clear(w.rows[:cap(w.rows)]) // decode reslices it once per policy
	}
}

// serveBatch answers one pulled window. Requests whose deadline budget ran
// out while they sat in the queue are answered with their context error
// before any decode is spent on them (the HTTP layer maps that to 408). The
// rest decode in one Decode call under the batcher's policy — except scored
// requests (the fleet router's fallback), which keep a fixed-width,
// non-adaptive policy so their scores rank shards like for like, and stay
// out of the adaptive counters.
func (b *Batcher) serveBatch(w *window) {
	// The partition appends lag the iteration, so reusing the batch's
	// backing array for the unscored prefix is safe.
	plain := w.batch[:0]
	w.scored = w.scored[:0]
	for _, r := range w.batch {
		switch {
		case r.ctx != nil && r.ctx.Err() != nil:
			b.expired.Add(1)
			b.reply(r, parseResult{err: r.ctx.Err()})
		case r.scored:
			w.scored = append(w.scored, r)
		default:
			plain = append(plain, r)
		}
	}
	b.decode(w, plain, model.Policy{Beam: b.opt.Beam, Adaptive: b.opt.Adaptive})
	b.decode(w, w.scored, model.Policy{Beam: b.opt.Beam})
}

// decode answers reqs with one Decode call. A decode panic is recovered
// instead of killing the worker: the window is re-decoded request by request,
// so only the poisoned request gets ErrDecodeFailed.
func (b *Batcher) decode(w *window, reqs []request, pol model.Policy) {
	if len(reqs) == 0 {
		return
	}
	w.rows = w.rows[:0]
	for _, r := range reqs {
		w.rows = append(w.rows, model.Row{Words: r.words, Context: r.context})
	}
	outs, err := b.safeDecode(w.rows, pol)
	switch {
	case err != nil && len(reqs) > 1:
		for i := range reqs {
			b.decode(w, reqs[i:i+1], pol)
		}
		return
	case err != nil:
		b.failed.Add(1)
		b.reply(reqs[0], parseResult{err: err})
		return
	}
	for i, r := range reqs {
		if pol.Adaptive && pol.Beam > 1 {
			b.adaptive.Add(1)
			if outs[i].Escalated {
				b.escalated.Add(1)
			}
		}
		b.reply(r, parseResult{toks: outs[i].Tokens, score: outs[i].Score})
	}
}

// safeDecode is Parser.Decode with a panic recovered into ErrDecodeFailed.
func (b *Batcher) safeDecode(rows []model.Row, pol model.Policy) (outs []model.Decoded, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			outs, err = nil, fmt.Errorf("%w: decode panicked: %v", ErrDecodeFailed, rec)
		}
	}()
	return b.parser.Decode(rows, pol), nil
}

func (b *Batcher) reply(r request, res parseResult) {
	r.reply <- res
	b.depth.Add(-1)
}

// submit admits one request or reports why it cannot: ErrClosed after
// Close, ErrOverloaded when MaxQueue requests are already in flight, the
// context error if ctx ends while an unbounded submission is blocked. A
// successful submit guarantees a reply (workers answer every admitted
// request, including during drain).
func (b *Batcher) submit(ctx context.Context, r request) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	r.admitted = time.Now()
	if b.opt.MaxQueue > 0 {
		if b.depth.Add(1) > int64(b.opt.MaxQueue) {
			b.depth.Add(-1)
			b.shed.Add(1)
			return ErrOverloaded
		}
		// At most MaxQueue requests are admitted, and the channel holds
		// that many, so this send cannot block.
		b.in <- r
		return nil
	}
	b.depth.Add(1)
	select {
	case b.in <- r:
		return nil
	case <-b.done:
		b.depth.Add(-1)
		return ErrClosed
	case <-ctx.Done():
		b.depth.Add(-1)
		return ctx.Err()
	}
}

// ParseContextCtx submits one sentence through the batching path and waits
// for its program tokens, conditioned on the previous turn's program tokens
// (multi-turn dialogue). An empty prior — or a parser trained without a
// context encoder — decodes the sentence alone, so callers can thread
// session context unconditionally.
func (b *Batcher) ParseContextCtx(ctx context.Context, words, prior []string) ([]string, error) {
	res, err := b.do(ctx, request{words: words, context: prior, reply: make(chan parseResult, 1)})
	return res.toks, err
}

// ParseScoredCtx decodes one sentence without a prior, like ParseContextCtx
// with none, and also returns the decoded hypothesis's length-normalized
// score (model.Decoded.Score), decoded at the batcher's beam width without
// the adaptive policy.
func (b *Batcher) ParseScoredCtx(ctx context.Context, words []string) ([]string, float64, error) {
	res, err := b.do(ctx, request{words: words, scored: true, reply: make(chan parseResult, 1)})
	return res.toks, res.score, err
}

// Contextual reports whether the underlying parser decodes with dialogue
// context (the fleet's session flow is a no-op otherwise).
func (b *Batcher) Contextual() bool {
	type contextual interface{ Contextual() bool }
	if c, ok := b.parser.(contextual); ok {
		return c.Contextual()
	}
	return false
}

func (b *Batcher) do(ctx context.Context, r request) (parseResult, error) {
	if err := ctx.Err(); err != nil {
		return parseResult{}, err
	}
	r.ctx = ctx
	if err := b.submit(ctx, r); err != nil {
		return parseResult{}, err
	}
	select {
	case out := <-r.reply:
		if out.err != nil {
			return parseResult{}, out.err
		}
		return out, nil
	case <-ctx.Done():
		return parseResult{}, ctx.Err()
	}
}

// Stats reports served traffic; Requests/Batches is the realized mean batch
// size.
type Stats struct {
	Requests int64
	Batches  int64
	// Shed counts requests rejected by admission control (queue full).
	Shed int64
	// Expired counts requests whose deadline budget ran out in the queue;
	// they were answered with their context error before any decode was
	// spent (the HTTP layer's 408).
	Expired int64
	// Failed counts requests whose decode panicked (ErrDecodeFailed).
	Failed int64
	// QueueDepth is the current number of admitted, unanswered requests.
	QueueDepth int64
	// QueueWait is the cumulative time requests spent between admission and
	// a worker pulling them (mean = QueueWait/Requests): ≈ 0 while a worker
	// is free, the backlog's age once the pool is busy.
	QueueWait time.Duration
	// Adaptive counts requests decoded under the greedy-first adaptive
	// policy; Escalated counts the subset re-decoded with the beam because
	// their greedy confidence fell below the fitted threshold.
	Adaptive  int64
	Escalated int64
	// BatchSizes is the pull histogram: BatchSizes[i] windows carried i+1
	// requests.
	BatchSizes []int64
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() Stats {
	hist := make([]int64, len(b.hist))
	for i := range b.hist {
		hist[i] = b.hist[i].Load()
	}
	return Stats{
		Requests:   b.requests.Load(),
		Batches:    b.batches.Load(),
		Shed:       b.shed.Load(),
		Expired:    b.expired.Load(),
		Failed:     b.failed.Load(),
		QueueDepth: b.depth.Load(),
		QueueWait:  time.Duration(b.queueWait.Load()),
		Adaptive:   b.adaptive.Load(),
		Escalated:  b.escalated.Load(),
		BatchSizes: hist,
	}
}

// Close rejects further requests, drains everything already admitted
// (every in-flight request still gets its reply, decoded on this batcher's
// parser), and waits for the workers to exit.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() {
		b.closeMu.Lock()
		b.closed = true
		b.closeMu.Unlock()
		close(b.done)
	})
	b.wg.Wait()
}
