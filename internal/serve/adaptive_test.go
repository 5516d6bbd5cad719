package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// adaptiveFake decodes with deterministic outputs and an instrumented beam:
// sentences starting with "low" score below the threshold (must escalate
// under the adaptive policy), "high" ones above it (must stay greedy). The
// first output token records which path decoded the request.
type adaptiveFake struct {
	threshold float64
	fitted    bool
	beams     atomic.Int64 // rows decoded with the beam
}

func (f *adaptiveFake) scoreOf(words []string) float64 {
	if len(words) > 0 && strings.HasPrefix(words[0], "low") {
		return f.threshold - 1
	}
	return f.threshold + 1
}

func (f *adaptiveFake) Decode(rows []model.Row, pol model.Policy) []model.Decoded {
	out := make([]model.Decoded, len(rows))
	for i, r := range rows {
		s := f.scoreOf(r.Words)
		escalated := pol.Adaptive && f.fitted && s < f.threshold
		if pol.Beam > 1 && (!pol.Adaptive || escalated) {
			f.beams.Add(1)
			out[i] = model.Decoded{Tokens: append([]string{"beam"}, r.Words...), Score: s, Escalated: escalated}
		} else {
			out[i] = model.Decoded{Tokens: append([]string{"greedy"}, r.Words...), Score: s}
		}
	}
	return out
}

// TestAdaptiveBatcherEscalationCounters floods an adaptive batcher with
// concurrent requests straddling the confidence threshold (run under -race
// in CI): every low-confidence request must come back beam-decoded, every
// high-confidence one greedy, and the escalation counters must equal the
// observed beam decodes exactly.
func TestAdaptiveBatcherEscalationCounters(t *testing.T) {
	f := &adaptiveFake{threshold: -1, fitted: true}
	b := NewBatcher(f, Options{
		Adaptive: true, Beam: 3, MaxBatch: 4,
		Workers: 4, MaxQueue: 600,
	})
	const n = 240
	var wg sync.WaitGroup
	var lowCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			words := []string{fmt.Sprintf("high%d", i), "x"}
			if i%3 == 0 {
				words = []string{fmt.Sprintf("low%d", i), "x"}
				lowCount.Add(1)
			}
			out, err := b.ParseContextCtx(context.Background(), words, nil)
			if err != nil {
				t.Errorf("ParseContextCtx: %v", err)
				return
			}
			want := "greedy"
			if strings.HasPrefix(words[0], "low") {
				want = "beam"
			}
			if len(out) == 0 || out[0] != want {
				t.Errorf("request %v decoded via %v, want %s path", words, out, want)
			}
		}(i)
	}
	wg.Wait()
	b.Close()

	st := b.Stats()
	if st.Adaptive != n {
		t.Errorf("Stats.Adaptive = %d, want %d", st.Adaptive, n)
	}
	if st.Escalated != lowCount.Load() {
		t.Errorf("Stats.Escalated = %d, want %d low-confidence requests", st.Escalated, lowCount.Load())
	}
	if observed := f.beams.Load(); observed != st.Escalated {
		t.Errorf("escalation counter %d does not match observed beam decodes %d", st.Escalated, observed)
	}
	if st.Requests != n {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, n)
	}
}

// TestAdaptiveBatcherUnfittedStaysGreedy: with Adaptive on but no fitted
// calibration, nothing escalates and the beam is never touched.
func TestAdaptiveBatcherUnfittedStaysGreedy(t *testing.T) {
	f := &adaptiveFake{threshold: -1, fitted: false}
	b := NewBatcher(f, Options{Adaptive: true, Beam: 3, MaxBatch: 4, MaxQueue: 300})
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.ParseContextCtx(context.Background(), []string{fmt.Sprintf("low%d", i)}, nil)
			if err != nil {
				t.Errorf("ParseContextCtx: %v", err)
				return
			}
			if len(out) == 0 || out[0] != "greedy" {
				t.Errorf("unfitted adaptive decode went through %v, want greedy", out)
			}
		}(i)
	}
	wg.Wait()
	b.Close()
	st := b.Stats()
	if st.Escalated != 0 || f.beams.Load() != 0 {
		t.Errorf("unfitted calibration escalated: %+v, beam decodes %d", st, f.beams.Load())
	}
	if st.Adaptive != 60 {
		t.Errorf("Stats.Adaptive = %d, want 60", st.Adaptive)
	}
}

// TestAdaptiveBatcherRealParser runs the adaptive policy over a real trained
// parser: with the threshold above every score all concurrent requests
// escalate and the outputs equal ParseBeam's; with it below, all stay greedy
// and equal Parse's.
func TestAdaptiveBatcherRealParser(t *testing.T) {
	p := toyParser()
	defer p.SetCalibration(model.Calibration{}) // shared parser: restore
	sentences := testSentences()

	for _, tc := range []struct {
		name      string
		threshold float64
		escalated bool
	}{
		{"all-escalate", math.Inf(1), true},
		{"none-escalate", math.Inf(-1), false},
	} {
		p.SetCalibration(model.Calibration{Fitted: true, Threshold: tc.threshold})
		b := NewBatcher(p, Options{Adaptive: true, Beam: 3, MaxBatch: 4, MaxQueue: 300})
		want := make([]string, len(sentences))
		for i, s := range sentences {
			if tc.escalated {
				want[i] = strings.Join(p.ParseBeam(s, 3), " ")
			} else {
				want[i] = strings.Join(p.Parse(s), " ")
			}
		}
		var wg sync.WaitGroup
		for i := range sentences {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := b.ParseContextCtx(context.Background(), sentences[i], nil)
				if err != nil {
					t.Errorf("%s: ParseContextCtx: %v", tc.name, err)
					return
				}
				if got := strings.Join(out, " "); got != want[i] {
					t.Errorf("%s: decode of %v = %q, want %q", tc.name, sentences[i], got, want[i])
				}
			}(i)
		}
		wg.Wait()
		b.Close()
		st := b.Stats()
		wantEsc := int64(0)
		if tc.escalated {
			wantEsc = int64(len(sentences))
		}
		if st.Escalated != wantEsc || st.Adaptive != int64(len(sentences)) {
			t.Errorf("%s: stats %+v, want %d escalated of %d adaptive", tc.name, st, wantEsc, len(sentences))
		}
	}
}
