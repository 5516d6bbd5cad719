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

// adaptiveFake implements every decode surface with deterministic outputs
// and an instrumented beam: sentences starting with "low" score below the
// threshold (must escalate), "high" ones above it (must stay greedy). The
// first output token records which path decoded the request.
type adaptiveFake struct {
	threshold float64
	fitted    bool
	beamCalls atomic.Int64 // single-sentence beam decodes (ParseBeam / escalated ParseAdaptive)
	beamRows  atomic.Int64 // sentences decoded through ParseBeamBatch
}

func (f *adaptiveFake) scoreOf(words []string) float64 {
	if len(words) > 0 && strings.HasPrefix(words[0], "low") {
		return f.threshold - 1
	}
	return f.threshold + 1
}

func (f *adaptiveFake) greedy(words []string) []string  { return append([]string{"greedy"}, words...) }
func (f *adaptiveFake) beamOut(words []string) []string { return append([]string{"beam"}, words...) }

func (f *adaptiveFake) Parse(words []string) []string { return f.greedy(words) }

func (f *adaptiveFake) ParseBeam(words []string, width int) []string {
	f.beamCalls.Add(1)
	return f.beamOut(words)
}

func (f *adaptiveFake) ParseScored(words []string, width int) ([]string, float64) {
	if width > 1 {
		f.beamCalls.Add(1)
		return f.beamOut(words), f.scoreOf(words)
	}
	return f.greedy(words), f.scoreOf(words)
}

func (f *adaptiveFake) ParseAdaptive(words []string, width int) ([]string, float64, bool) {
	s := f.scoreOf(words)
	if width <= 1 || !f.fitted || s >= f.threshold {
		return f.greedy(words), s, false
	}
	f.beamCalls.Add(1)
	return f.beamOut(words), s, true
}

func (f *adaptiveFake) ParseBatch(sentences [][]string) [][]string {
	outs, _ := f.ParseBatchScored(sentences)
	return outs
}

func (f *adaptiveFake) ParseBatchScored(sentences [][]string) ([][]string, []float64) {
	outs := make([][]string, len(sentences))
	scores := make([]float64, len(sentences))
	for i, s := range sentences {
		outs[i] = f.greedy(s)
		scores[i] = f.scoreOf(s)
	}
	return outs, scores
}

func (f *adaptiveFake) ParseBeamBatch(sentences [][]string, width int) [][]string {
	f.beamRows.Add(int64(len(sentences)))
	outs := make([][]string, len(sentences))
	for i, s := range sentences {
		outs[i] = f.beamOut(s)
	}
	return outs
}

func (f *adaptiveFake) ConfidenceThreshold() (float64, bool) { return f.threshold, f.fitted }

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
			out, err := b.ParseCtx(context.Background(), words)
			if err != nil {
				t.Errorf("ParseCtx: %v", err)
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
	if observed := f.beamCalls.Load() + f.beamRows.Load(); observed != st.Escalated {
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
			out, err := b.ParseCtx(context.Background(), []string{fmt.Sprintf("low%d", i)})
			if err != nil {
				t.Errorf("ParseCtx: %v", err)
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
	if st.Escalated != 0 || f.beamCalls.Load()+f.beamRows.Load() != 0 {
		t.Errorf("unfitted calibration escalated: %+v, beam decodes %d",
			st, f.beamCalls.Load()+f.beamRows.Load())
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
				out, err := b.ParseCtx(context.Background(), sentences[i])
				if err != nil {
					t.Errorf("%s: ParseCtx: %v", tc.name, err)
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
