// Package serve is the parser-serving layer: it turns a trained
// model.Parser — a pure function after training — into a long-lived service.
// It provides a work-conserving decode worker pool (Batcher) with
// bounded-queue admission control and graceful drain, where the requests
// that queued behind a busy pool decode as one batched forward per decode step
// (model.Parser.ParseBatch/ParseBeamBatch: all requests' hypotheses advance
// in lockstep as rows of B×n tensors), an HTTP JSON front end (Server) with
// a matching Client, and a trained-snapshot cache keyed by the Thingpedia
// skill-library checksum (Cache), so re-serving an unchanged library skips
// training entirely. The multi-skill fleet control plane (internal/fleet)
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
)

// Parser is the decoding surface the serving layer needs; *model.Parser
// implements it.
type Parser interface {
	Parse(words []string) []string
	ParseBeam(words []string, width int) []string
}

// BatchParser is the batched decoding surface; *model.Parser implements it.
// When the Batcher's parser does, each pulled window decodes as one batched
// forward per decode step — the window's sentences (or beams) advance in
// lockstep as rows of stacked tensors — so a backlog buys matmul width
// instead of queueing request by request.
type BatchParser interface {
	ParseBatch(sentences [][]string) [][]string
	ParseBeamBatch(sentences [][]string, width int) [][]string
}

// ScoredParser decodes with a hypothesis score; *model.Parser implements it
// (length-normalized log-probability). The fleet router's fallback path
// submits scored requests to every shard and keeps the best-scoring answer.
type ScoredParser interface {
	ParseScored(words []string, width int) ([]string, float64)
}

// AdaptiveParser decodes greedily and escalates to the beam only below its
// fitted confidence threshold; *model.Parser implements it.
type AdaptiveParser interface {
	ParseAdaptive(words []string, width int) (toks []string, score float64, escalated bool)
}

// ScoredBatchParser is the batched greedy decode with per-request scores;
// *model.Parser implements it. The adaptive batched path decodes the whole
// window greedily through it and re-decodes only the low-confidence subset
// with the beam.
type ScoredBatchParser interface {
	ParseBatchScored(sentences [][]string) ([][]string, []float64)
}

// CalibratedParser exposes the fitted confidence threshold; *model.Parser
// implements it.
type CalibratedParser interface {
	ConfidenceThreshold() (threshold float64, fitted bool)
}

// ContextParser is the contextual (multi-turn) decoding surface;
// *model.Parser implements it. ctx is the previous turn's program token
// sequence; both methods delegate to the single-turn decode — bit-identically
// — when ctx is empty or the parser was trained without a context encoder,
// so a batcher over a contextual parser serves single-turn traffic
// unchanged.
type ContextParser interface {
	ParseContext(words, ctx []string) []string
	ParseContextScored(words, ctx []string, width int) ([]string, float64)
}

// AdaptiveContextParser is the contextual form of the greedy-first
// escalation policy; *model.Parser implements it.
type AdaptiveContextParser interface {
	ParseContextAdaptive(words, ctx []string, width int) (toks []string, score float64, escalated bool)
}

// BatchContextParser is the batched contextual decode; *model.Parser
// implements it. Every row must carry a non-empty context (the model layer
// panics otherwise), so the batcher partitions each pulled window into its
// contextual and plain halves and decodes them as separate lockstep batches.
type BatchContextParser interface {
	ParseBatchContext(sentences, contexts [][]string) [][]string
	ParseBatchContextScored(sentences, contexts [][]string) ([][]string, []float64)
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
	// fitted threshold (CalibratedParser). High-confidence traffic then
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
	scored   bool      // decode through ScoredParser and report the hypothesis score
	admitted time.Time // when submit admitted it; the pull measures queue wait from here
	reply    chan parseResult
}

// Batcher decodes incoming parse requests on a fixed worker pool that pulls
// straight from the admission queue: a free worker takes the next request
// the moment it arrives, plus — without waiting — whatever else is already
// queued, up to MaxBatch. Requests only accumulate while every worker is
// busy, so batch size tracks load by itself: an idle batcher decodes at B=1
// with no added wait, a saturated one forms full MaxBatch windows at pull
// time. When the parser supports batched decoding (BatchParser, which
// *model.Parser does), a worker decodes its whole window in one lockstep
// batched call; otherwise workers pull one request at a time. Because
// decoding is concurrency-safe, all workers share the one trained parser,
// and distinct windows decode concurrently.
//
// Admission is bounded: at most Options.MaxQueue requests may be in flight
// (queued or decoding); beyond that ParseCtx sheds immediately with
// ErrOverloaded instead of queueing behind a slow consumer. Close drains:
// requests admitted before Close are decoded and answered on the old parser
// before the workers exit, which is what lets the fleet control plane
// hot-swap a shard without dropping in-flight requests.
type Batcher struct {
	opt    Options
	parser Parser
	bp     BatchParser       // non-nil when parser supports batched decode
	sp     ScoredParser      // non-nil when parser supports scored decode
	ap     AdaptiveParser    // non-nil when parser supports adaptive decode
	sbp    ScoredBatchParser // non-nil when parser supports scored batched decode
	cp     CalibratedParser  // non-nil when parser exposes its calibration
	ctxp   ContextParser     // non-nil when parser supports contextual decode
	acp    AdaptiveContextParser
	bcp    BatchContextParser

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
	b.bp, _ = p.(BatchParser)
	b.sp, _ = p.(ScoredParser)
	b.ap, _ = p.(AdaptiveParser)
	b.sbp, _ = p.(ScoredBatchParser)
	b.cp, _ = p.(CalibratedParser)
	b.ctxp, _ = p.(ContextParser)
	b.acp, _ = p.(AdaptiveContextParser)
	b.bcp, _ = p.(BatchContextParser)
	for w := 0; w < opt.Workers; w++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// window is one worker's reusable scratch: the pulled requests, their
// partition, and the sentence/context rows handed to the batched decode.
type window struct {
	batch, scored, ctxed []request
	sentences, contexts  [][]string
}

// worker is the work-conserving pull loop: block for one request, take
// whatever else is already queued (never waiting for company), decode,
// repeat. After Close nothing new can be admitted (Close flips closed under
// the write lock before closing done), so a worker that finds the queue
// empty once done is closed may exit: every admitted request has been pulled.
func (b *Batcher) worker() {
	defer b.wg.Done()
	limit := b.opt.MaxBatch
	if b.bp == nil {
		limit = 1 // no batched decode surface: one request per worker at a time
	}
	w := &window{batch: make([]request, 0, limit)}
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
		for len(w.batch) < limit {
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
		clear(w.ctxed)
	}
}

// serveBatch answers one pulled window. Requests whose deadline budget ran
// out while they sat in the queue are answered with their context error
// before any decode is spent on them (the HTTP layer maps that to 408);
// scored requests decode per-request through ScoredParser; the plain
// remainder decodes as one lockstep batched call when the parser supports
// it. A decode panic anywhere is recovered into a per-request
// ErrDecodeFailed instead of killing the worker.
func (b *Batcher) serveBatch(w *window) {
	// The expired/scored/contextual partition appends lag the iteration, so
	// reusing the batch's backing array for the plain prefix is safe.
	plain := w.batch[:0]
	w.scored, w.ctxed = w.scored[:0], w.ctxed[:0]
	for _, r := range w.batch {
		switch {
		case r.ctx != nil && r.ctx.Err() != nil:
			b.expired.Add(1)
			b.reply(r, parseResult{err: r.ctx.Err()})
		case r.scored && (b.sp != nil || (len(r.context) > 0 && b.ctxp != nil)):
			w.scored = append(w.scored, r)
		case len(r.context) > 0 && b.ctxp != nil:
			w.ctxed = append(w.ctxed, r)
		default:
			plain = append(plain, r)
		}
	}
	if b.bp != nil && len(plain) > 1 {
		w.sentences = w.sentences[:0]
		for _, r := range plain {
			w.sentences = append(w.sentences, r.words)
		}
		outs, err := b.decodeWindow(w.sentences)
		if err == nil {
			for i, r := range plain {
				b.reply(r, parseResult{toks: outs[i]})
			}
		} else {
			// The batched call panicked: one poisoned request must not take
			// the whole window down. Re-decode per request so only the
			// poisoned one errors.
			for _, r := range plain {
				toks, derr := b.safeDecode(r.words)
				b.reply(r, parseResult{toks: toks, err: derr})
			}
		}
	} else {
		for _, r := range plain {
			toks, err := b.safeDecode(r.words)
			b.reply(r, parseResult{toks: toks, err: err})
		}
	}
	b.serveContextWindow(w)
	for _, r := range w.scored {
		b.reply(r, b.safeScored(r))
	}
}

// serveContextWindow answers the contextual part of a pulled window. It
// decodes as one lockstep contextual batch when the parser has the batched
// surface and the policy allows it (greedy, or adaptive — there is no
// batched contextual beam, so fixed beam widths decode per request), with
// the same panic-isolation fallback as the plain window.
func (b *Batcher) serveContextWindow(w *window) {
	ctxed := w.ctxed
	if len(ctxed) == 0 {
		return
	}
	if b.bcp != nil && len(ctxed) > 1 && (b.opt.Beam <= 1 || b.adaptiveOn()) {
		w.sentences, w.contexts = w.sentences[:0], w.contexts[:0]
		for _, r := range ctxed {
			w.sentences = append(w.sentences, r.words)
			w.contexts = append(w.contexts, r.context)
		}
		outs, err := b.decodeContextWindow(w.sentences, w.contexts)
		if err == nil {
			for i, r := range ctxed {
				b.reply(r, parseResult{toks: outs[i]})
			}
			return
		}
		// Batched contextual decode panicked: re-decode per request so only
		// the poisoned request errors.
	}
	for _, r := range ctxed {
		toks, err := b.safeDecodeContext(r.words, r.context)
		b.reply(r, parseResult{toks: toks, err: err})
	}
}

// decodeContextWindow is decodeWindow's contextual twin: greedy lockstep
// batch, or — under the adaptive policy — a scored greedy batch with only
// the low-confidence rows re-decoded through the contextual beam.
func (b *Batcher) decodeContextWindow(sentences, contexts [][]string) (outs [][]string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			outs, err = nil, fmt.Errorf("%w: batched context decode panicked: %v", ErrDecodeFailed, rec)
		}
	}()
	if b.adaptiveOn() {
		return b.decodeAdaptiveContextBatch(sentences, contexts), nil
	}
	return b.bcp.ParseBatchContext(sentences, contexts), nil
}

// decodeAdaptiveContextBatch mirrors decodeAdaptiveBatch for contextual
// rows: the window decodes greedily in one scored contextual batch, then
// requests below the fitted confidence threshold re-decode one by one
// through the contextual beam (there is no batched contextual beam).
func (b *Batcher) decodeAdaptiveContextBatch(sentences, contexts [][]string) [][]string {
	outs, scores := b.bcp.ParseBatchContextScored(sentences, contexts)
	b.adaptive.Add(int64(len(sentences)))
	var thr float64
	fitted := false
	if b.cp != nil {
		thr, fitted = b.cp.ConfidenceThreshold()
	}
	if !fitted {
		return outs
	}
	for i, s := range scores {
		if len(sentences[i]) > 0 && s < thr {
			outs[i], _ = b.ctxp.ParseContextScored(sentences[i], contexts[i], b.opt.Beam)
			b.escalated.Add(1)
		}
	}
	return outs
}

// safeDecodeContext is the per-request contextual decode with panic
// recovery.
func (b *Batcher) safeDecodeContext(words, ctx []string) (toks []string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			b.failed.Add(1)
			toks, err = nil, fmt.Errorf("%w: context decode panicked: %v", ErrDecodeFailed, rec)
		}
	}()
	return b.decodeContext(words, ctx), nil
}

func (b *Batcher) decodeContext(words, ctx []string) []string {
	if b.adaptiveOn() && b.acp != nil {
		toks, _, escalated := b.acp.ParseContextAdaptive(words, ctx, b.opt.Beam)
		b.adaptive.Add(1)
		if escalated {
			b.escalated.Add(1)
		}
		return toks
	}
	if b.opt.Beam > 1 {
		toks, _ := b.ctxp.ParseContextScored(words, ctx, b.opt.Beam)
		return toks
	}
	return b.ctxp.ParseContext(words, ctx)
}

// decodeWindow decodes one pulled window through the batched surface,
// recovering a panic into an error instead of killing the worker.
func (b *Batcher) decodeWindow(sentences [][]string) (outs [][]string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			outs, err = nil, fmt.Errorf("%w: batched decode panicked: %v", ErrDecodeFailed, rec)
		}
	}()
	switch {
	case b.adaptiveOn() && b.sbp != nil:
		outs = b.decodeAdaptiveBatch(sentences)
	case b.opt.Beam > 1:
		outs = b.bp.ParseBeamBatch(sentences, b.opt.Beam)
	default:
		outs = b.bp.ParseBatch(sentences)
	}
	return outs, nil
}

// safeDecode is the per-request decode with panic recovery.
func (b *Batcher) safeDecode(words []string) (toks []string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			b.failed.Add(1)
			toks, err = nil, fmt.Errorf("%w: decode panicked: %v", ErrDecodeFailed, rec)
		}
	}()
	return b.decode(words), nil
}

// safeScored is the per-request scored decode with panic recovery;
// contextual requests score through the contextual surface.
func (b *Batcher) safeScored(r request) (res parseResult) {
	defer func() {
		if rec := recover(); rec != nil {
			b.failed.Add(1)
			res = parseResult{err: fmt.Errorf("%w: decode panicked: %v", ErrDecodeFailed, rec)}
		}
	}()
	if len(r.context) > 0 && b.ctxp != nil {
		toks, score := b.ctxp.ParseContextScored(r.words, r.context, max(1, b.opt.Beam))
		return parseResult{toks: toks, score: score}
	}
	toks, score := b.sp.ParseScored(r.words, max(1, b.opt.Beam))
	return parseResult{toks: toks, score: score}
}

func (b *Batcher) reply(r request, res parseResult) {
	r.reply <- res
	b.depth.Add(-1)
}

func (b *Batcher) decode(words []string) []string {
	if b.adaptiveOn() && b.ap != nil {
		toks, _, escalated := b.ap.ParseAdaptive(words, b.opt.Beam)
		b.adaptive.Add(1)
		if escalated {
			b.escalated.Add(1)
		}
		return toks
	}
	if b.opt.Beam > 1 {
		return b.parser.ParseBeam(words, b.opt.Beam)
	}
	return b.parser.Parse(words)
}

// adaptiveOn reports whether the greedy-first escalation policy applies
// (beam width 1 has nothing to escalate to).
func (b *Batcher) adaptiveOn() bool { return b.opt.Adaptive && b.opt.Beam > 1 }

// decodeAdaptiveBatch is the windowed form of the adaptive policy: the whole
// window decodes greedily in lockstep, then only the requests whose greedy
// confidence falls below the fitted threshold re-decode as one beam batch.
func (b *Batcher) decodeAdaptiveBatch(sentences [][]string) [][]string {
	outs, scores := b.sbp.ParseBatchScored(sentences)
	b.adaptive.Add(int64(len(sentences)))
	var thr float64
	fitted := false
	if b.cp != nil {
		thr, fitted = b.cp.ConfidenceThreshold()
	}
	if !fitted {
		return outs
	}
	var low []int
	for i, s := range scores {
		if len(sentences[i]) > 0 && s < thr {
			low = append(low, i)
		}
	}
	if len(low) == 0 {
		return outs
	}
	sub := make([][]string, len(low))
	for j, i := range low {
		sub[j] = sentences[i]
	}
	reouts := b.bp.ParseBeamBatch(sub, b.opt.Beam)
	for j, i := range low {
		outs[i] = reouts[j]
	}
	b.escalated.Add(int64(len(low)))
	return outs
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

// ParseCtx submits one sentence through the batching path and waits for its
// program tokens.
func (b *Batcher) ParseCtx(ctx context.Context, words []string) ([]string, error) {
	res, err := b.do(ctx, request{words: words, reply: make(chan parseResult, 1)})
	return res.toks, err
}

// ParseContextCtx is ParseCtx conditioned on the previous turn's program
// tokens (multi-turn dialogue). With an empty prior — or a parser without
// the ContextParser surface — it is exactly ParseCtx, so callers can thread
// session context unconditionally.
func (b *Batcher) ParseContextCtx(ctx context.Context, words, prior []string) ([]string, error) {
	res, err := b.do(ctx, request{words: words, context: prior, reply: make(chan parseResult, 1)})
	return res.toks, err
}

// ParseScoredCtx is ParseCtx plus the decoded hypothesis's
// length-normalized score (see model.Parser.ParseScored); it requires a
// parser with the ScoredParser surface, else the score is 0.
func (b *Batcher) ParseScoredCtx(ctx context.Context, words []string) ([]string, float64, error) {
	res, err := b.do(ctx, request{words: words, scored: true, reply: make(chan parseResult, 1)})
	return res.toks, res.score, err
}

// ParseContextScoredCtx is ParseScoredCtx conditioned on the previous
// turn's program tokens.
func (b *Batcher) ParseContextScoredCtx(ctx context.Context, words, prior []string) ([]string, float64, error) {
	res, err := b.do(ctx, request{words: words, context: prior, scored: true, reply: make(chan parseResult, 1)})
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

// Parse implements eval.Decoder over the batched path, so eval.Evaluate and
// eval.EvaluateParallel can score a served parser exactly like a local one.
// A closed or overloaded batcher decodes to nil (scored as wrong).
//
//genielint:ctx-root interface adapter: the eval.Decoder contract has no ctx parameter
func (b *Batcher) Parse(words []string) []string {
	out, err := b.ParseCtx(context.Background(), words)
	if err != nil {
		return nil
	}
	return out
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
