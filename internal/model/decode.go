package model

import (
	"math"
	"sort"
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

// decodeBatch decodes rows[idx...] in lockstep, writing out[idx[b]].
func (p *Parser) decodeBatch(rows []Row, idx []int, withCtx bool, pol Policy, out []Decoded) {
	dc := acquireDecodeCtx()
	defer dc.release()
	e := p.encodeRows(dc, rows, idx, withCtx)
	live := dc.live[:0] // the rows the beam runs over
	if pol.Beam > 1 && !pol.Adaptive {
		for b := range idx {
			live = append(live, b)
		}
	} else {
		p.greedyBatch(dc, &e, idx, out)
		for b, i := range idx {
			if p.escalates(pol, out[i].Score) {
				live = append(live, b)
			}
		}
	}
	dc.live = live
	if len(live) > 0 {
		p.beamBatch(dc, &e, live, pol.Beam, idx, out)
		for _, b := range live {
			out[idx[b]].Escalated = pol.Adaptive
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

// inferGraphs pools arena-backed inference graphs across all parsers: an
// arena hands out tensors of any shape from its slabs, so graphs recycle
// cleanly between models of different dimensions.
var inferGraphs = nn.NewGraphPool()

// decodeCtx is the per-call state of one decode: an inference graph drawn
// from the shared pool plus every scratch buffer the decode loops need — the
// window's sentences and contexts, their padded source and previous-program
// memories, and the per-row step bookkeeping. A decode acquires one, runs,
// and releases it, so a single trained Parser serves any number of
// goroutines with near-zero steady-state allocation. Nothing decode-time
// lives on the Parser itself.
//
//genielint:arena-scoped
type decodeCtx struct {
	g *nn.Graph
	scoreScratch

	words, ctxs [][]string
	bufs, cbufs batchBufs
	prev        []int            // per-row previous target token ids
	blocks      []int            // per-row memory block (request) indices
	srcIdx      []int            // per-row parent rows in the previous step's tensors
	gss         []*grammar.State // per-row grammar states of the greedy loop
	live        []int            // requests the beam runs over
}

// scoreScratch holds the buffers of the mixture scorers.
type scoreScratch struct {
	ms        mixScorer
	ls        grammar.LegalSet
	lc        grammar.LegalCache
	scored    []scoredToken
	copyWords []string
	copyAlpha []float64
}

var decodeCtxs = sync.Pool{New: func() any { return new(decodeCtx) }}

func acquireDecodeCtx() *decodeCtx {
	dc := decodeCtxs.Get().(*decodeCtx)
	dc.g = inferGraphs.Get()
	return dc
}

// release returns the graph (resetting its arena) and the scratch buffers to
// their pools. Tensors produced during the call are invalid afterwards, so
// callers must copy anything that outlives the decode before releasing. The
// tensor-pointer buffers are zeroed first: the arena recycles those tensors
// for the next lease, and a pooled context must not pin (or accidentally
// alias) another request's live tensors through stale pointers.
func (dc *decodeCtx) release() {
	dc.bufs.releaseTensors()
	dc.cbufs.releaseTensors()
	clear(dc.words[:cap(dc.words)]) // nor any caller's request memory
	clear(dc.ctxs[:cap(dc.ctxs)])
	clear(dc.gss[:cap(dc.gss)])
	inferGraphs.Put(dc.g)
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

// copyDist returns row r of a step's outputs as the mixture scorers consume
// it. Without a context memory the copy distribution is the source attention
// over words, returned as is (no copy, no allocation). With one, the context
// tokens become extra copyable positions: the copy distribution over
// words++ctx is [(1−cgate)·alpha, cgate·beta], so every mixture scorer —
// fused argmax, top-k, and the grammar-masked variants — applies unchanged.
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

// best picks a hypothesis's greedy next token and its mixed probability:
// the masked argmax while the hypothesis has a grammar state, the unmasked
// one otherwise. masked is false when no mask applied — gs was nil, or the
// mask admitted nothing (cannot happen for a well-formed automaton; kept as
// a defensive fallback), in which case the caller decodes the rest unmasked.
func (p *Parser) best(sc *scoreScratch, gs *grammar.State, rem int, m mixRow) (tok string, prob float64, masked bool) {
	if gs != nil {
		if tok, prob, ok := p.maskedBest(&sc.ms, &sc.ls, &sc.lc, gs, rem, m.pv, m.alpha, m.gate, m.words); ok {
			return tok, prob, true
		}
	}
	tok, prob = p.bestTokenScored(&sc.ms, m.pv, m.alpha, m.gate, m.words)
	return tok, prob, false
}

// top is best's beam form: the k most probable next tokens, masked like best.
func (p *Parser) top(sc *scoreScratch, gs *grammar.State, rem int, m mixRow, k int) (cands []scoredToken, masked bool) {
	if gs != nil {
		if cands, ok := p.maskedTop(&sc.ms, &sc.ls, &sc.lc, gs, rem, &sc.scored, m.pv, m.alpha, m.gate, m.words, k); ok {
			return cands, true
		}
	}
	return p.topTokens(&sc.ms, &sc.scored, m.pv, m.alpha, m.gate, m.words, k), false
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

// bestTokenScored mixes the generation and copy distributions and returns
// the argmax token with its mixed probability. pv and alpha are one decoder
// step's vocabulary-distribution and attention rows (raw slices, so the
// batched decoder can pass rows of its stacked tensors); alpha covers at
// least len(words) positions.
func (p *Parser) bestTokenScored(ms *mixScorer, pv, alpha []float64, gate float64, words []string) (string, float64) {
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	ms.prepare(p.tgt, words, alpha)
	defer ms.release()
	bestTok := EosToken
	bestP := math.Inf(-1)
	// Generation path over the vocabulary (skip <unk> and <s>), with the
	// copy mass of in-vocabulary source words mixed in via the O(1) mark
	// lookup.
	for id := 2; id < p.tgt.Size(); id++ {
		prob := g * pv[id]
		if s := ms.mark[id]; s != 0 {
			if m := ms.slots[s-1].mass; m > 0 {
				prob += (1 - g) * m
			}
		}
		if prob > bestP {
			bestP = prob
			bestTok = p.tgt.Token(id)
		}
	}
	if !p.cfg.PointerGen {
		return bestTok, bestP
	}
	// Copy path for out-of-vocabulary source tokens (slots preserve first-
	// occurrence order, matching the unfused scan).
	for i := range ms.slots {
		s := &ms.slots[i]
		if s.id >= 0 {
			continue
		}
		prob := (1 - g) * s.mass
		if prob > bestP {
			bestP = prob
			bestTok = s.word
		}
	}
	return bestTok, bestP
}

// beamItem is one hypothesis during beam decoding. row locates its decoder
// state: a row of the beam's stacked step tensors. gs is the hypothesis's
// grammar state (nil when decoding unmasked); grammar states are immutable
// under Step, so forked hypotheses share their parent's state safely.
type beamItem struct {
	tokens  []string
	logProb float64
	prev    int
	done    bool
	row     int
	gs      *grammar.State
}

// lengthNormScore is the length-normalized log-probability used for both
// pruning and final selection, by every decode loop. logProb accumulates one
// factor per decoded token plus, for finished hypotheses, the </s> factor;
// dividing by that count keeps long programs competitive with short ones.
// Ranking by raw cumulative log-probability systematically favored truncated
// programs — every extra token can only lower the sum.
func lengthNormScore(logProb float64, ntokens int, done bool) float64 {
	if done {
		ntokens++
	}
	if ntokens == 0 {
		return logProb
	}
	return logProb / float64(ntokens)
}

func (it *beamItem) score() float64 { return lengthNormScore(it.logProb, len(it.tokens), it.done) }

// bestHypIndex returns the index of a beam's winner: complete hypotheses
// beat incomplete ones, ties broken by length-normalized score.
func bestHypIndex(n int, done func(int) bool, score func(int) float64) int {
	best := 0
	for i := 0; i < n; i++ {
		if done(i) && !done(best) {
			best = i
			continue
		}
		if done(i) == done(best) && score(i) > score(best) {
			best = i
		}
	}
	return best
}

// bestHypothesis returns the beam's winner as a Decoded.
func bestHypothesis(beam []beamItem) Decoded {
	best := beam[bestHypIndex(len(beam),
		func(i int) bool { return beam[i].done },
		func(i int) float64 { return beam[i].score() })]
	return Decoded{Tokens: best.tokens, Score: best.score()}
}

// expand appends to cands the children of hypothesis h under its top next
// tokens; row is where the children's decoder state lives.
func (p *Parser) expand(cands []beamItem, h *beamItem, top []scoredToken, masked bool, row int) []beamItem {
	for _, c := range top {
		n := beamItem{
			tokens:  append(append([]string(nil), h.tokens...), c.tok),
			logProb: h.logProb + math.Log(c.p+1e-12),
			prev:    p.tgt.ID(c.tok),
			row:     row,
		}
		if c.tok == EosToken {
			n.done = true
			n.tokens = n.tokens[:len(n.tokens)-1]
		} else if masked {
			n.gs = p.grammarStep(h.gs, c.tok)
		}
		cands = append(cands, n)
	}
	return cands
}

// prune keeps the width best candidates by length-normalized score.
func prune(cands []beamItem, width int) []beamItem {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score() > cands[j].score() })
	if len(cands) > width {
		cands = cands[:width]
	}
	return cands
}

type scoredToken struct {
	tok string
	p   float64
}

// topTokens returns the k most probable next tokens under the mixed
// pointer–generator distribution, through the same fused O(V+S) scan as
// bestTokenScored. pv and alpha are one step's distribution rows as in
// bestTokenScored; the backing comes from *scored (a reusable decode-context
// buffer) and is valid until the next call over the same buffer.
func (p *Parser) topTokens(ms *mixScorer, scored *[]scoredToken, pv, alpha []float64, gate float64, words []string, k int) []scoredToken {
	g := gate
	if !p.cfg.PointerGen {
		g = 1
	}
	ms.prepare(p.tgt, words, alpha)
	defer ms.release()
	all := (*scored)[:0]
	for id := 2; id < p.tgt.Size(); id++ {
		prob := g * pv[id]
		if s := ms.mark[id]; s != 0 {
			if m := ms.slots[s-1].mass; m > 0 {
				prob += (1 - g) * m
			}
		}
		all = append(all, scoredToken{tok: p.tgt.Token(id), p: prob})
	}
	if p.cfg.PointerGen {
		for i := range ms.slots {
			s := &ms.slots[i]
			if s.id >= 0 {
				continue
			}
			all = append(all, scoredToken{tok: s.word, p: (1 - g) * s.mass})
		}
	}
	*scored = all
	sort.SliceStable(all, func(i, j int) bool { return all[i].p > all[j].p })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
