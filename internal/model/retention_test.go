package model

import (
	"testing"

	"repro/internal/nn"
)

// fillBufs simulates an encode pass leaving arena tensors in every buffer,
// then shrinks the visible lengths the way grow does on a shorter follow-up
// call, so the test also covers pointers hiding between len and cap.
func fillEncBufs(g *nn.Graph, e *encBufs, n int) {
	for _, buf := range []*[]*nn.Tensor{&e.embs, &e.fhs, &e.bhs, &e.rows} {
		s := grow(buf, n)
		for i := range s {
			s[i] = g.NewTensor(1, 2)
		}
		*buf = (*buf)[:n/2]
	}
}

func assertCleared(t *testing.T, name string, ts []*nn.Tensor) {
	t.Helper()
	full := ts[:cap(ts)]
	for i, p := range full {
		if p != nil {
			t.Errorf("%s[%d] still pins a tensor after release", name, i)
		}
	}
}

// TestReleasedDecodeCtxRetainsNoTensors pins the pool-retention audit fix: a
// decode context returned to its sync.Pool must not keep stale arena-tensor
// pointers alive — the arena recycles those tensors for the next graph
// lease, and a pooled context pinning them both leaks the backing slabs and
// risks aliasing another request's live tensors.
func TestReleasedDecodeCtxRetainsNoTensors(t *testing.T) {
	dc := acquireDecodeCtx()
	fillEncBufs(dc.g, &dc.enc, 6)
	dc.release()

	assertCleared(t, "enc.embs", dc.enc.embs)
	assertCleared(t, "enc.fhs", dc.enc.fhs)
	assertCleared(t, "enc.bhs", dc.enc.bhs)
	assertCleared(t, "enc.rows", dc.enc.rows)
	if dc.g != nil {
		t.Error("released decodeCtx still holds its graph")
	}
}

func TestReleasedBatchDecodeCtxRetainsNoTensors(t *testing.T) {
	dc := acquireDecodeCtx()
	for _, buf := range []*[]*nn.Tensor{&dc.bufs.embs, &dc.bufs.fhs, &dc.bufs.bhs, &dc.bufs.rows, &dc.cbufs.embs, &dc.cbufs.fhs, &dc.cbufs.rows, &dc.cenc.embs, &dc.cenc.hs, &dc.cenc.rows} {
		s := grow(buf, 6)
		for i := range s {
			s[i] = dc.g.NewTensor(2, 2)
		}
		*buf = (*buf)[:3]
	}
	dc.release()

	assertCleared(t, "bufs.embs", dc.bufs.embs)
	assertCleared(t, "bufs.fhs", dc.bufs.fhs)
	assertCleared(t, "bufs.bhs", dc.bufs.bhs)
	assertCleared(t, "bufs.rows", dc.bufs.rows)
	assertCleared(t, "cbufs.embs", dc.cbufs.embs)
	assertCleared(t, "cbufs.fhs", dc.cbufs.fhs)
	assertCleared(t, "cbufs.rows", dc.cbufs.rows)
	assertCleared(t, "cenc.embs", dc.cenc.embs)
	assertCleared(t, "cenc.hs", dc.cenc.hs)
	assertCleared(t, "cenc.rows", dc.cenc.rows)
	if dc.g != nil {
		t.Error("released decodeCtx still holds its graph")
	}
}
