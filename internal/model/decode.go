package model

import (
	"math"
	"sync"

	"repro/internal/grammar"
	"repro/internal/nn"
)

// Row is one decode request: a tokenized sentence and, for a follow-up turn
// of a dialogue, the previous turn's program tokens. An empty Context — or a
// parser trained without Config.Contextual — decodes the single-turn way.
type Row struct {
	Words   []string
	Context []string
}

// Policy selects how rows are decoded. Beam <= 1 is greedy; Beam > 1 runs a
// fixed-width beam, unless Adaptive is set: then every row decodes greedily
// first and only the rows whose greedy score falls below the parser's fitted
// Calibration threshold are re-decoded with the beam. Without a fitted
// calibration Adaptive never escalates.
type Policy struct {
	Beam     int
	Adaptive bool
}

// Decoded is one row's answer: the program tokens, the hypothesis's
// length-normalized log-probability (comparable across parsers, which is
// what the fleet router's fallback ranks shards by), and whether the adaptive
// policy re-decoded the row with the beam. An empty sentence decodes to nil
// tokens with score -Inf.
type Decoded struct {
	Tokens    []string
	Score     float64
	Escalated bool
}

// Decode is the parser's one decode surface; Parse, ParseBeam, ParseScored,
// ParseContext and ParseBatch are conveniences over it. It owns two
// decisions. (1) Rows are split by whether they carry a context this parser
// can use: the rest take the single-turn step, so a contextual parser
// decodes a first turn bit-identically to a parser trained without the
// context encoder. Each half advances in lockstep, one batched forward per
// decode step (a free worker of the serving layer hands over whatever queued
// behind a busy pool; a lone row is a batch of one), and a row decodes to the
// same tokens and scores whatever else shares its batch. (2) The policy:
// greedy, beam, or greedy first with the low-confidence rows escalated to
// the beam over the same encoded memory.
//
// Tokens may be copied verbatim from the input via the pointer mechanism, so
// the output can contain words outside the target vocabulary. Decode is safe
// for concurrent use: all decode state lives in a pooled per-call context.
func (p *Parser) Decode(rows []Row, pol Policy) []Decoded {
	out := make([]Decoded, len(rows))
	for i := range out {
		out[i].Score = math.Inf(-1)
	}
	var buf [16]int
	for _, withCtx := range [2]bool{false, true} {
		idx := buf[:0]
		for i, r := range rows {
			if len(r.Words) > 0 && (p.ctxCell != nil && len(r.Context) > 0) == withCtx {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			p.decodeBatch(rows, idx, withCtx, pol, out)
		}
	}
	return out
}

// escalates reports whether the adaptive policy re-decodes a greedy
// hypothesis of this score with the beam.
func (p *Parser) escalates(pol Policy, score float64) bool {
	return pol.Adaptive && pol.Beam > 1 && p.calib.Fitted && score < p.calib.Threshold
}

// decodeBatch decodes rows[idx...] in lockstep, writing out[idx[b]]: one
// search at width 1 (greedy) or pol.Beam, and under the adaptive policy a
// second search at width pol.Beam over the escalated rows of the same
// encoding.
func (p *Parser) decodeBatch(rows []Row, idx []int, withCtx bool, pol Policy, out []Decoded) {
	dc := acquireDecodeCtx()
	defer dc.release()
	e := p.encodeRows(dc, rows, idx, withCtx)
	width := pol.Beam
	if width < 1 || pol.Adaptive {
		width = 1
	}
	live := dc.live[:0] // the window rows a search runs over
	for b := range idx {
		live = append(live, b)
	}
	p.search(dc, &e, live, width, idx, out)
	live = live[:0]
	for b, i := range idx {
		if p.escalates(pol, out[i].Score) {
			live = append(live, b)
		}
	}
	dc.live = live
	if len(live) > 0 {
		p.search(dc, &e, live, pol.Beam, idx, out)
		for _, b := range live {
			out[idx[b]].Escalated = true
		}
	}
}

// Parse greedily decodes the program token sequence for a sentence.
func (p *Parser) Parse(words []string) []string { return p.ParseContext(words, nil) }

// ParseContext greedily decodes a sentence against the previous turn's
// program tokens; with an empty context it is exactly Parse.
func (p *Parser) ParseContext(words, ctx []string) []string {
	return p.Decode([]Row{{Words: words, Context: ctx}}, Policy{})[0].Tokens
}

// ParseBeam decodes with a fixed-width beam and returns the best complete
// hypothesis (greedy at width <= 1).
func (p *Parser) ParseBeam(words []string, width int) []string {
	toks, _ := p.ParseScored(words, width)
	return toks
}

// ParseScored is Parse (width <= 1) or ParseBeam with the winning
// hypothesis's length-normalized log-probability alongside its tokens.
func (p *Parser) ParseScored(words []string, width int) ([]string, float64) {
	d := p.Decode([]Row{{Words: words}}, Policy{Beam: width})[0]
	return d.Tokens, d.Score
}

// ParseBatch greedily decodes a window of sentences in one Decode call; the
// outputs are token-identical to per-sentence Parse.
func (p *Parser) ParseBatch(sentences [][]string) [][]string {
	rows := make([]Row, len(sentences))
	for i, s := range sentences {
		rows[i].Words = s
	}
	outs := make([][]string, len(sentences))
	for i, d := range p.Decode(rows, Policy{}) {
		outs[i] = d.Tokens
	}
	return outs
}

// Contextual reports whether the parser carries the multi-turn context
// encoder (Config.Contextual at training time).
func (p *Parser) Contextual() bool { return p.ctxCell != nil }

// decodeCtx is the per-call state of one decode: an arena-backed inference
// graph plus every scratch buffer the search needs — the window's sentences
// and contexts, their padded source and previous-program memories, the
// per-row step bookkeeping, and the hypotheses with their token history. A decode acquires one, runs, and releases it, so a single
// trained Parser serves any number of goroutines with near-zero
// steady-state allocation. Nothing decode-time lives on the Parser itself.
// Contexts are shared by all parsers: an arena hands out tensors of any shape
// from its slabs, so a graph recycles cleanly between models of different
// dimensions.
//
//genielint:arena-scoped
type decodeCtx struct {
	// graph is the context's own inference graph, reset on release; g leases
	// it to one call and is nil while the context is pooled.
	graph, g *nn.Graph
	scoreScratch

	words, ctxs [][]string
	bufs, cbufs batchBufs
	prev        []int      // per-row previous target token ids
	blocks      []int      // per-row memory block (request) indices
	srcIdx      []int      // per-row parent rows in the previous step's tensors
	live        []int      // the window rows a search runs over
	hyps        []hyp      // the beams' backing, width per request
	beams       [][]hyp    // per-request beams
	cands       []hyp      // one request's children of a step
	hist        []histNode // the token history the hypotheses link into
}

// scoreScratch holds the buffers of the candidate scan.
type scoreScratch struct {
	ms        mixScorer
	ls        grammar.LegalSet
	lc        grammar.LegalCache
	top       []scoredToken
	copyWords []string
	copyAlpha []float64
}

var decodeCtxs = sync.Pool{New: func() any {
	return &decodeCtx{graph: nn.NewGraphArena(false, nn.NewArena())}
}}

func acquireDecodeCtx() *decodeCtx {
	dc := decodeCtxs.Get().(*decodeCtx)
	dc.g = dc.graph
	return dc
}

// release resets the graph (recycling its arena) and returns the context to
// the pool. Tensors produced during the call are invalid afterwards, so
// callers must copy anything that outlives the decode before releasing. The
// tensor-pointer buffers are zeroed first: the arena recycles those tensors
// for the next lease, and a pooled context must not pin (or accidentally
// alias) another request's live tensors through stale pointers.
func (dc *decodeCtx) release() {
	dc.bufs.releaseTensors()
	dc.cbufs.releaseTensors()
	clear(dc.words[:cap(dc.words)]) // nor any caller's request memory
	clear(dc.ctxs[:cap(dc.ctxs)])
	clear(dc.hyps[:cap(dc.hyps)]) // nor grammar states or copied words
	clear(dc.cands[:cap(dc.cands)])
	clear(dc.hist)
	dc.hist = dc.hist[:0]
	dc.graph.Reset()
	dc.g = nil
	decodeCtxs.Put(dc)
}

// mixRow is one hypothesis's view of a decoder step: its vocabulary
// distribution and pointer gate, and the copy distribution alpha over the
// words it may copy.
type mixRow struct {
	pv, alpha []float64
	gate      float64
	words     []string
}

// copyDist returns row r of a step's outputs as the candidate scan consumes
// it. Without a context memory the copy distribution is the source attention
// over words, returned as is (no copy, no allocation). With one, the context
// tokens become extra copyable positions: the copy distribution over
// words++ctx is [(1−cgate)·alpha, cgate·beta], so the scan applies
// unchanged, masked or not.
func (sc *scoreScratch) copyDist(o *stepOut, r int, words, ctx []string) mixRow {
	V, S := o.pv.Cols, o.alpha.Cols
	m := mixRow{pv: o.pv.W[r*V : (r+1)*V], alpha: o.alpha.W[r*S : r*S+len(words)], gate: o.gate.W[r], words: words}
	if o.beta == nil {
		return m
	}
	M, cgate := o.beta.Cols, o.cgate.W[r]
	sc.copyWords = append(append(sc.copyWords[:0], words...), ctx...)
	ea := sc.copyAlpha[:0]
	for _, a := range m.alpha {
		ea = append(ea, (1-cgate)*a)
	}
	for _, b := range o.beta.W[r*M : r*M+len(ctx)] {
		ea = append(ea, cgate*b)
	}
	sc.copyAlpha = ea
	m.words, m.alpha = sc.copyWords, ea
	return m
}

// mixSlot is one distinct source word of the sentence being decoded: its
// target-vocabulary id (or -1 when it can only be produced by copying) and
// the total attention mass over its source positions this step.
type mixSlot struct {
	word string
	id   int32
	mass float64
}

// mixScorer fuses the pointer-mix argmax: instead of rescanning the sentence
// once per vocabulary entry (O(V·S) string compares per decode step, the
// dominant cost at small vocabularies), prepare indexes the sentence's
// distinct words once per step — total copy mass per word, accumulated in
// source-position order exactly like the unfused scan — and marks their
// vocabulary ids in a sparse id->slot table, so the vocabulary pass does one
// O(1) lookup per entry and the whole mixed-distribution scan is O(V+S).
// The scorer lives in the pooled decode contexts; mark stays all-zero
// between prepare/release pairs, so a pooled context serves parsers of any
// vocabulary size.
type mixScorer struct {
	mark  []int32 // target-vocab id -> slot index + 1
	slots []mixSlot
}

// prepare indexes words and one step's attention row alpha. Call release
// before the next prepare.
func (ms *mixScorer) prepare(tgt *Vocab, words []string, alpha []float64) {
	ms.slots = ms.slots[:0]
	if len(ms.mark) < tgt.Size() {
		ms.mark = make([]int32, tgt.Size())
	}
	for i, w := range words {
		if id, ok := tgt.lookup(w); ok {
			if s := ms.mark[id]; s != 0 {
				ms.slots[s-1].mass += alpha[i]
				continue
			}
			ms.slots = append(ms.slots, mixSlot{word: w, id: int32(id), mass: alpha[i]})
			ms.mark[id] = int32(len(ms.slots))
			continue
		}
		dup := false
		for j := range ms.slots {
			if ms.slots[j].id < 0 && ms.slots[j].word == w {
				ms.slots[j].mass += alpha[i]
				dup = true
				break
			}
		}
		if !dup {
			ms.slots = append(ms.slots, mixSlot{word: w, id: -1, mass: alpha[i]})
		}
	}
}

// release restores the all-zero mark invariant (touching only the entries
// prepare set).
func (ms *mixScorer) release() {
	for i := range ms.slots {
		if id := ms.slots[i].id; id >= 0 {
			ms.mark[id] = 0
		}
	}
}

// mix is vocabulary id's probability under the pointer-generator mixture
// with gate g: its generation probability plus the copy mass of the source
// words that spell it.
func (ms *mixScorer) mix(pv []float64, g float64, id int) float64 {
	prob := g * pv[id]
	if s := ms.mark[id]; s != 0 {
		if m := ms.slots[s-1].mass; m > 0 {
			prob += (1 - g) * m
		}
	}
	return prob
}

// scoredToken is one scan candidate: a next token and its mixed
// probability.
type scoredToken struct {
	tok string
	p   float64
}

// insertRanked inserts x into top, which holds at most k entries in
// descending key order: x moves ahead of an entry only when its key is
// strictly greater, and whatever falls past k is dropped. Fed a sequence one
// by one, top ends as the sequence's stable descending sort truncated to k,
// so ties keep arrival order; at k = 1 it is the first strict argmax.
func insertRanked[T any](top []T, k int, x T, key func(T) float64) []T {
	kx := key(x)
	i := len(top)
	for i > 0 && kx > key(top[i-1]) {
		i--
	}
	if i >= k {
		return top
	}
	if len(top) < k {
		top = append(top, x)
	}
	copy(top[i+1:], top[i:])
	top[i] = x
	return top
}

// kBest is the scan's bounded candidate buffer: the k most probable
// candidates so far, by insertRanked on their probability. floor is the
// k-th probability once k are kept (-Inf before), so the scan tests a
// candidate against it inline and inserts only the few that get in.
type kBest struct {
	k     int
	top   []scoredToken
	floor float64
}

// add inserts a candidate that beat the floor.
func (b *kBest) add(tok string, p float64) {
	b.top = insertRanked(b.top, b.k, scoredToken{tok, p}, func(c scoredToken) float64 { return c.p })
	if len(b.top) == b.k {
		b.floor = b.top[b.k-1].p
	}
}

// addCopies offers the out-of-vocabulary copy words ls admits (every one
// when ls is nil), in first-occurrence order.
func (b *kBest) addCopies(ms *mixScorer, g float64, ls *grammar.LegalSet) {
	for i := range ms.slots {
		s := &ms.slots[i]
		if s.id >= 0 || ls != nil && !ls.WordLegal(s.word) {
			continue
		}
		if prob := (1 - g) * s.mass; prob > b.floor {
			b.add(s.word, prob)
		}
	}
}

// scan is the one candidate scan of every decode: the k most probable next
// tokens of a hypothesis under the pointer-generator mixture of its step row
// m, fused over the sentence's distinct words (mixScorer) so it costs
// O(V+S). Unmasked (ls nil) the candidates are the vocabulary from </s> up,
// then the out-of-vocabulary copy words in first-occurrence order. Masked,
// they are that order filtered to ls: </s> if legal, ls.IDs (ascending),
// then the legal copy words — so whenever the unmasked argmax is itself
// legal the two modes pick the same token with the same probability. When
// the mask admits nothing (cannot happen for a well-formed automaton; kept
// as a defensive fallback) the scan runs unmasked and reports masked false,
// and the hypothesis decodes the rest unmasked. The result is backed by
// sc.top and valid until the next scan.
func (p *Parser) scan(sc *scoreScratch, ls *grammar.LegalSet, m mixRow, k int) (top []scoredToken, masked bool) {
	g := m.gate
	if !p.cfg.PointerGen {
		g = 1
	}
	ms := &sc.ms
	ms.prepare(p.tgt, m.words, m.alpha)
	defer ms.release()
	b := kBest{k: k, top: sc.top[:0], floor: math.Inf(-1)}
	if ls != nil {
		if ls.EOS {
			b.add(EosToken, ms.mix(m.pv, g, EosID))
		}
		for _, id := range ls.IDs {
			if prob := ms.mix(m.pv, g, int(id)); prob > b.floor {
				b.add(p.tgt.Token(int(id)), prob)
			}
		}
		if p.cfg.PointerGen {
			b.addCopies(ms, g, ls)
		}
		masked = len(b.top) > 0
	}
	if !masked {
		for id := EosID; id < p.tgt.Size(); id++ {
			if prob := ms.mix(m.pv, g, id); prob > b.floor {
				b.add(p.tgt.Token(id), prob)
			}
		}
		if p.cfg.PointerGen {
			b.addCopies(ms, g, nil)
		}
	}
	sc.top = b.top
	return b.top, masked
}

// hyp is one hypothesis of the search. Its tokens live in the decode's
// token history as a chain of parent links ending at last (-1 while it has
// none), so forking a hypothesis copies no prefix; n counts them. row
// locates its decoder state, a row of the step's stacked tensors. gs is its
// grammar state (nil when decoding unmasked); grammar states are immutable
// under Step, so children share their parent's state safely.
type hyp struct {
	logProb float64
	gs      *grammar.State
	last, n int
	prev    int
	row     int
	done    bool
}

// histNode is one emitted token of the decode's token history and the
// history index of the token before it (-1 for a first token).
type histNode struct {
	tok    string
	parent int
}

// lengthNormScore is the length-normalized log-probability used for both
// pruning and final selection. logProb accumulates one factor per decoded
// token plus, for finished hypotheses, the </s> factor; dividing by that
// count keeps long programs competitive with short ones. Ranking by raw
// cumulative log-probability systematically favored truncated programs —
// every extra token can only lower the sum.
func lengthNormScore(logProb float64, ntokens int, done bool) float64 {
	if done {
		ntokens++
	}
	if ntokens == 0 {
		return logProb
	}
	return logProb / float64(ntokens)
}

func (h hyp) score() float64 { return lengthNormScore(h.logProb, h.n, h.done) }

// expand appends to cands the children of h under its top next tokens. A
// child that emits </s> is complete; any other records its token in the
// history and advances the grammar state while the scan was masked.
func (p *Parser) expand(dc *decodeCtx, cands []hyp, h *hyp, top []scoredToken, masked bool) []hyp {
	for _, c := range top {
		n := hyp{logProb: h.logProb + math.Log(c.p+1e-12), last: h.last, n: h.n, prev: p.tgt.ID(c.tok), row: h.row}
		if c.tok == EosToken {
			n.done = true
		} else {
			dc.hist = append(dc.hist, histNode{tok: c.tok, parent: h.last})
			n.last, n.n = len(dc.hist)-1, h.n+1
			if masked {
				n.gs = p.grammarStep(h.gs, c.tok)
			}
		}
		cands = append(cands, n)
	}
	return cands
}

// prune keeps in beam the width best candidates by length-normalized score,
// through the scan's insertion.
func prune(beam, cands []hyp, width int) []hyp {
	for _, c := range cands {
		beam = insertRanked(beam, width, c, hyp.score)
	}
	return beam
}

// finish returns a beam's winner as a Decoded — complete hypotheses beat
// incomplete ones, ties broken by length-normalized score — with its tokens
// read back from the history.
func (dc *decodeCtx) finish(beam []hyp) Decoded {
	best := &beam[0]
	for i := range beam {
		if h := &beam[i]; h.done && !best.done || h.done == best.done && h.score() > best.score() {
			best = h
		}
	}
	toks := make([]string, best.n)
	for i, j := best.n-1, best.last; i >= 0; i-- {
		toks[i] = dc.hist[j].tok
		j = dc.hist[j].parent
	}
	return Decoded{Tokens: toks, Score: best.score()}
}
