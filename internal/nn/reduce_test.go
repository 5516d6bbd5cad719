package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// An orderCase builds one B=16 graph whose parameters are reduced from
// several ops: it returns the outputs whose gradients the test seeds, and
// the tensors whose values and gradients it digests.
type orderCase struct {
	name, digest string
	build        func(g *Graph, rng *rand.Rand) (seed, digest []*Tensor)
}

// withGrad gives t a gradient to add into, a −0 in it.
func withGrad(t *Tensor, rng *rand.Rand) *Tensor {
	for i := range t.DW {
		t.DW[i] = rng.NormFloat64()
	}
	t.DW[len(t.DW)/2] = math.Copysign(0, -1)
	return t
}

// orderCases are the parameters a split step reduces at the end of Backward
// where the order of the adds is easiest to get wrong; their digests were
// recorded on the graph that reduced every op's parameters as its backward
// met them, before the reductions were deferred.
var orderCases = []orderCase{
	{"product and unfused MatMul share a weight", "97db78c72c6b27795e6dc2e492afb537745909b38928b08b5e5a4bfe9295ab93",
		func(g *Graph, rng *rand.Rand) (seed, digest []*Tensor) {
			const B, in, n = 16, 13, 11
			w := withGrad(NewRandom(in, n, rng), rng)
			b := withGrad(NewRandom(1, n, rng), rng)
			x1, x2, x3 := NewRandom(B, in, rng), NewRandom(B, in, rng), NewRandom(B, in, rng)
			o1 := g.BatchedAffine(x1, w, b)
			o2 := g.MatMul(x2, w)
			o3 := g.BatchedAffine(x3, w, b)
			return []*Tensor{o1, o2, o3}, []*Tensor{w, b, x1, x2, x3}
		}},
	{"repeated ids across two lookups", "b79d61754ad6379b7f91aac4699b0c1538a043308040cacf771c4cb56bcb5870",
		func(g *Graph, rng *rand.Rand) (seed, digest []*Tensor) {
			const B, V, d = 16, 7, 9
			emb := withGrad(NewRandom(V, d, rng), rng)
			ids1, ids2 := make([]int, B), make([]int, B)
			for i := range ids1 {
				ids1[i], ids2[i] = rng.Intn(V), rng.Intn(3)
			}
			ids1[3], ids1[12] = 2, 2
			o1 := g.LookupRows(emb, ids1)
			o2 := g.LookupRows(emb, ids2)
			return []*Tensor{o1, o2}, []*Tensor{emb}
		}},
	{"one bias shared by two affines", "0d16ac5e4176776b669efb60bd0e11a90967b45ec80b83f661ae842481b491b9",
		func(g *Graph, rng *rand.Rand) (seed, digest []*Tensor) {
			const B, in, n = 16, 6, 10
			b := withGrad(NewRandom(1, n, rng), rng)
			w1 := withGrad(NewRandom(in, n, rng), rng)
			withGrad(NewRandom(in, n, rng), rng) // drawn when the digest was recorded
			x := NewRandom(B, in, rng)
			o1 := g.BatchedAffine(x, w1, b)
			o2 := g.BatchedAffine(g.Tanh(o1), withGrad(NewRandom(n, n, rng), rng), b)
			return []*Tensor{o2}, []*Tensor{b, w1, x}
		}},
	{"halves end at different timesteps", "3c656dc01b62cea2fc1a8ced2b80dd897cf21dcee2933d2acf0f76ec59412c3e",
		func(g *Graph, rng *rand.Rand) (seed, digest []*Tensor) {
			const B, V, E, H, T = 16, 12, 8, 10, 6
			emb := withGrad(NewRandom(V, E, rng), rng)
			cell := NewLSTMCell(E, H, rng)
			withGrad(cell.Wx, rng)
			withGrad(cell.Wh, rng)
			withGrad(cell.B, rng)
			out := NewLinear(H, V, rng)
			drop := rand.New(rand.NewSource(77))
			h, c := g.NewTensor(B, H), g.NewTensor(B, H)
			nll := make([]float64, T*B)
			for t := 0; t < T; t++ {
				ids, active := make([]int, B), make([]bool, B)
				idx, scale := make([]int, B), make([]float64, B)
				for b := range ids {
					ids[b], idx[b] = rng.Intn(V), rng.Intn(V)
					end := 2 // the lower half ends after two steps, the upper after five
					if b >= B/2 {
						end = 5
					}
					active[b] = t < end
					if active[b] {
						scale[b] = 1.0 / B
					}
				}
				x := g.Dropout(g.LookupRows(emb, ids), 0.25, drop)
				h, c = cell.StepBatch(g, x, h, c, active)
				pv := g.SoftmaxRows(g.BatchedAffine(g.Tanh(h), out.W, out.B))
				ones := g.NewTensor(B, 1)
				for b := range ones.W {
					ones.W[b] = 1
				}
				g.NLLPointerMixBatch(pv, nil, ones, nil, nil, nil, nil, idx, scale, nll[t*B:(t+1)*B])
			}
			return nil, []*Tensor{emb, cell.Wx, cell.Wh, cell.B, out.W, out.B, {W: nll}}
		}},
}

func orderDigest(ts []*Tensor) string {
	h := sha256.New()
	var word [8]byte
	for _, t := range ts {
		for _, s := range [][]float64{t.W, t.DW} {
			for _, v := range s {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReductionsKeepRecordOrder: a weight shared by a B=16 product and an
// unfused MatMul, an embedding table looked up twice with repeated ids, a
// bias shared by two affines, and a batch whose halves stop at different
// timesteps end a split step with the gradients (and losses) recorded when
// every op added into its parameters as its backward met them — on a heap
// graph and an arena graph, at GOMAXPROCS 1, 2 and 4, with the helpers
// taking the upper parts and with every part claimed back; and so does the
// same graph run as it is called, outside a split step.
func TestReductionsKeepRecordOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range orderCases {
		for _, procs := range []int{1, 2, 4} {
			for _, mode := range []string{"as called", "split", "split, arena", "split, claimed back"} {
				runtime.GOMAXPROCS(procs)
				var g *Graph
				if mode == "split, arena" {
					g = NewGraphArena(true, NewArena())
				} else {
					g = NewGraph(true)
				}
				if mode != "as called" {
					g.ResetStep(16)
				}
				forceClaimBack.Store(mode == "split, claimed back")
				rng := rand.New(rand.NewSource(11))
				seed, dig := c.build(g, rng)
				g.Forward()
				for _, s := range seed {
					withGrad(s, rng)
				}
				g.Backward()
				forceClaimBack.Store(false)
				if got := orderDigest(dig); got != c.digest {
					t.Errorf("%s, GOMAXPROCS %d, %s: digest %s, recorded %s", c.name, procs, mode, got, c.digest)
				}
			}
		}
	}
}
