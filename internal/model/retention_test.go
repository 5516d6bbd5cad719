package model

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/nn"
)

// fillBufs simulates an encode pass leaving arena tensors in every buffer,
// then shrinks the visible lengths the way grow does on a shorter follow-up
// call, so the test also covers pointers hiding between len and cap.
func fillBufs(g *nn.Graph, bb *batchBufs, n int) {
	for _, buf := range []*[]*nn.Tensor{&bb.embs, &bb.fhs, &bb.bhs, &bb.rows} {
		s := grow(buf, n)
		for i := range s {
			s[i] = g.NewTensor(2, 2)
		}
		*buf = (*buf)[:n/2]
	}
}

func assertCleared[T comparable](t *testing.T, name string, s []T) {
	t.Helper()
	var zero T
	for i, p := range s[:cap(s)] {
		if p != zero {
			t.Errorf("%s[%d] still pins a value after release", name, i)
		}
	}
}

func assertBufsCleared(t *testing.T, name string, bb *batchBufs) {
	t.Helper()
	assertCleared(t, name+".embs", bb.embs)
	assertCleared(t, name+".fhs", bb.fhs)
	assertCleared(t, name+".bhs", bb.bhs)
	assertCleared(t, name+".rows", bb.rows)
}

// TestReleasedDecodeCtxRetainsNoTensors pins the pool-retention audit fix: a
// decode context returned to its sync.Pool must not keep stale arena-tensor
// pointers alive — the arena recycles those tensors for the next graph
// lease, and a pooled context pinning them both leaks the backing slabs and
// risks aliasing another request's live tensors.
func TestReleasedDecodeCtxRetainsNoTensors(t *testing.T) {
	dc := acquireDecodeCtx()
	fillBufs(dc.g, &dc.bufs, 6)
	dc.release()

	assertBufsCleared(t, "bufs", &dc.bufs)
	if dc.g != nil {
		t.Error("released decodeCtx still holds its graph")
	}
}

// TestReleasedBatchDecodeCtxRetainsNoTensors covers the previous-program
// encoder's buffers, and the request memory a context holds: the window's
// sentences and contexts, its hypotheses' grammar states, and the token
// history (copied words among them).
func TestReleasedBatchDecodeCtxRetainsNoTensors(t *testing.T) {
	dc := acquireDecodeCtx()
	fillBufs(dc.g, &dc.cbufs, 6)
	words := grow(&dc.words, 4)
	ctxs := grow(&dc.ctxs, 4)
	hyps := grow(&dc.hyps, 4)
	cands := grow(&dc.cands, 4)
	for i := range words {
		words[i], ctxs[i] = []string{"a"}, []string{"b"}
		hyps[i].gs, cands[i].gs = new(grammar.State), new(grammar.State)
		dc.hist = append(dc.hist, histNode{tok: "c", parent: i - 1})
	}
	dc.words, dc.ctxs, dc.hyps, dc.cands = words[:1], ctxs[:1], hyps[:1], cands[:1]
	dc.release()

	assertBufsCleared(t, "cbufs", &dc.cbufs)
	for i, w := range dc.words[:cap(dc.words)] {
		if w != nil || dc.ctxs[:cap(dc.ctxs)][i] != nil {
			t.Errorf("words/ctxs[%d] still pins a request's tokens after release", i)
		}
	}
	assertCleared(t, "hyps", dc.hyps)
	assertCleared(t, "cands", dc.cands)
	assertCleared(t, "hist", dc.hist)
	if dc.g != nil {
		t.Error("released decodeCtx still holds its graph")
	}
}
