package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Spans of one request
// share Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace   uint64 `json:"trace"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id mints an identifier, for a trace (the spans of one request share it) or
// for a span whose children are recorded before it ends.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add stores one finished span under an id minted by id.
func (r *recorder) add(id, trace, parent uint64, layer string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Trace: trace, Span: id, Parent: parent, Layer: layer,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) { return readJSONL[span](path) }
