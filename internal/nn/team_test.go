package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// encDec is a small attention encoder–decoder with the pointer loss, built
// from the batched ops a model's training step uses: dropout, masked LSTM
// steps over padded rows, a packed memory, attention, the output softmax and
// the pointer mixture.
type encDec struct {
	emb                   *Embedding
	enc, dec              *LSTMCell
	attn, comb, out, gate *Linear
	params                []*Tensor
	opt                   *Adam
	rng                   *rand.Rand
	g                     *Graph
}

const encDecVocab = 40

func newEncDec(seed int64) *encDec {
	rng := rand.New(rand.NewSource(seed))
	const E, H = 32, 48
	m := &encDec{
		emb:  NewEmbedding(encDecVocab, E, rng),
		enc:  NewLSTMCell(E, H, rng),
		dec:  NewLSTMCell(E+H, H, rng),
		attn: NewLinear(H, H, rng),
		comb: NewLinear(2*H, H, rng),
		out:  NewLinear(H, encDecVocab, rng),
		gate: NewLinear(H, 1, rng),
		opt:  NewAdam(1e-2),
		rng:  rng,
		g:    NewGraphArena(true, NewArena()),
	}
	m.params = append(m.params, m.emb.Params()...)
	for _, c := range []*LSTMCell{m.enc, m.dec} {
		m.params = append(m.params, c.Params()...)
	}
	for _, l := range []*Linear{m.attn, m.comb, m.out, m.gate} {
		m.params = append(m.params, l.Params()...)
	}
	return m
}

// step trains on one batch of B pairs drawn from data: sources of 1..7 tokens
// and targets of 1..6, each padded to the batch's longest, as one split step;
// it returns the summed per-token loss.
func (m *encDec) step(data *rand.Rand, B int) float64 {
	g := m.g
	g.ResetStep(B)
	const H = 48
	lens, tlens := make([]int, B), make([]int, B)
	S, T := 0, 0
	for b := range lens {
		lens[b], tlens[b] = 1+data.Intn(7), 1+data.Intn(6)
		S, T = max(S, lens[b]), max(T, tlens[b])
	}
	src := make([]int, S*B)
	for i := range src {
		src[i] = 1 + data.Intn(encDecVocab-1)
	}
	h, c := g.NewTensor(B, H), g.NewTensor(B, H)
	rows := make([]*Tensor, S)
	for i := 0; i < S; i++ {
		active := make([]bool, B)
		for b := range active {
			active[b] = i < lens[b]
		}
		x := g.Dropout(g.LookupRows(m.emb.Table, src[i*B:(i+1)*B]), 0.1, m.rng)
		h, c = m.enc.StepBatch(g, x, h, c, active)
		rows[i] = h
	}
	mem := g.PackMemoryBatch(rows, lens)
	ctx := g.NewTensor(B, H)
	nlls := make([][]float64, T)
	prev := make([]int, B)
	for t := 0; t < T; t++ {
		active := make([]bool, B)
		idx, scale := make([]int, B), make([]float64, B)
		masks := make([][]bool, B)
		for b := range active {
			active[b] = t < tlens[b]
			idx[b] = data.Intn(encDecVocab+4) - 4 // −4..−1: out of vocabulary, a pure copy
			masks[b] = make([]bool, S)
			for i := 0; i < lens[b]; i++ {
				masks[b][i] = src[i*B+b] == idx[b] || idx[b] < 0 && i == -idx[b]-1
			}
			if active[b] {
				scale[b] = 1 / float64(B)
			}
		}
		x := g.ConcatCols(g.LookupRows(m.emb.Table, prev), ctx)
		h, c = m.dec.StepBatch(g, x, h, c, active)
		var alpha *Tensor
		alpha, ctx = g.AttendSoftmaxContextBatch(g.BatchedAffine(h, m.attn.W, m.attn.B), mem, nil, lens)
		ht := g.Tanh(g.BatchedAffine(g.ConcatCols(h, ctx), m.comb.W, m.comb.B))
		ht = g.Dropout(ht, 0.1, m.rng)
		pv := g.SoftmaxRows(g.BatchedAffine(ht, m.out.W, m.out.B))
		gate := g.Sigmoid(g.BatchedAffine(ht, m.gate.W, m.gate.B))
		nlls[t] = make([]float64, B)
		g.NLLPointerMixBatch(pv, alpha, gate, masks, nil, nil, nil, idx, scale, nlls[t])
		// The next step's lookup gets its own ids: a record keeps its ids
		// until Backward.
		prev = make([]int, B)
		for b := range prev {
			prev[b] = max(idx[b], 0)
		}
	}
	g.Forward()
	var loss float64
	for _, nll := range nlls {
		for _, v := range nll {
			loss += v
		}
	}
	g.BackwardStep(m.opt, m.params)
	return loss
}

// encDecDigest trains a fresh encDec for 12 steps of 16 padded pairs and
// returns the sha256 of its weights' bits, little-endian, and of the summed
// loss.
func encDecDigest() string {
	m := newEncDec(5)
	data := rand.New(rand.NewSource(6))
	var loss float64
	for s := 0; s < 12; s++ {
		loss += m.step(data, 16)
	}
	h := sha256.New()
	var word [8]byte
	for _, p := range append(m.params, &Tensor{W: []float64{loss}}) {
		for _, v := range p.W {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncoderDecoderDigest: a B=16 encoder–decoder step with padded rows and
// dropout gives the weights and loss recorded before its ops were split
// across cores, at GOMAXPROCS 1, 2 and 4, with the helpers
// taking the upper parts and with every part claimed back by its caller.
func TestEncoderDecoderDigest(t *testing.T) {
	want := "c2ffbb55b195758e26b94e995d35d4e35f7f81d9a49b48bb9e8fd6cf6dbe1f5d"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		for _, claimBack := range []bool{false, true} {
			runtime.GOMAXPROCS(procs)
			forceClaimBack.Store(claimBack)
			posted, reclaimed := helpers.posted.Load(), helpers.reclaimed.Load()
			got := encDecDigest()
			forceClaimBack.Store(false)
			posted, reclaimed = helpers.posted.Load()-posted, helpers.reclaimed.Load()-reclaimed
			if got != want {
				t.Errorf("GOMAXPROCS %d, claim back %v: digest %s, recorded %s", procs, claimBack, got, want)
			}
			switch {
			case procs == 1 && posted != 0:
				t.Errorf("GOMAXPROCS 1: %d jobs posted", posted)
			case procs > 1 && posted == 0:
				t.Errorf("GOMAXPROCS %d: no job posted", procs)
			case claimBack && reclaimed != posted:
				t.Errorf("GOMAXPROCS %d, claim back: %d of %d jobs claimed back", procs, reclaimed, posted)
			}
		}
	}
}

// TestForkFreesTheSlotOfAPanickingLowerPart: a split phase whose lower part
// panics — recovered by the caller, as the fleet recovers a failed retrain —
// leaves every helper slot free, so the next split phase still reaches a helper,
// even after as many such panics as there are slots.
func TestForkFreesTheSlotOfAPanickingLowerPart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := NewGraph(true)
	g.ResetStep(2)
	panicky := &job{rcut: [3]int{0, 1, 2}, run: func(j *job, from, to int) {
		if from == 0 {
			panic("lower part")
		}
	}}
	helpers.grow(1)
	for i := 0; i <= len(*helpers.slots.Load()); i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the lower part's panic did not reach the caller")
				}
			}()
			g.fork(panicky)
		}()
	}
	for i, sl := range *helpers.slots.Load() {
		if s := sl.state.Load(); s != slotFree {
			t.Errorf("slot %d left in state %d", i, s)
		}
	}
	var upper atomic.Int32
	next := &job{rcut: [3]int{0, 1, 2}, run: func(j *job, from, to int) {
		if from == 1 {
			upper.Add(1)
		}
	}}
	posted := helpers.posted.Load()
	g.fork(next)
	if helpers.posted.Load() == posted {
		t.Error("the next split phase found no free helper")
	}
	if upper.Load() != 1 {
		t.Errorf("the next split phase's upper part ran %d times", upper.Load())
	}
}
