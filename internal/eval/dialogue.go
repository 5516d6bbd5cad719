package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/thingtalk"
)

// ContextDecoder decodes a sentence conditioned on the previous turn's
// program tokens; *model.Parser implements it (ParseContext), and decoding
// with an empty context is exactly single-turn decoding.
type ContextDecoder interface {
	ParseContext(words, ctx []string) []string
}

// TurnSample is one dialogue turn under evaluation: the utterance, its gold
// program, and the previous turn's gold program tokens as decoding context
// (empty on first turns).
type TurnSample struct {
	Words   []string
	Context []string
	Program *thingtalk.Program
	// Alt are alternative gold annotations, accepted like dataset.Example.Alt.
	Alt []*thingtalk.Program
}

// DialogueReport splits program accuracy by turn position: first turns
// decode with no context (the single-turn regime) and follow-ups decode
// conditioned on the prior program, so the gap between the two is the cost
// of contextual interpretation.
type DialogueReport struct {
	First     Report
	Followups Report
}

// FirstTurnAccuracy is program accuracy over session-opening turns.
func (r DialogueReport) FirstTurnAccuracy() float64 { return r.First.ProgramAccuracy() }

// FollowupAccuracy is program accuracy over context-conditioned turns.
func (r DialogueReport) FollowupAccuracy() float64 { return r.Followups.ProgramAccuracy() }

// Gap is first-turn minus follow-up accuracy in percentage points.
func (r DialogueReport) Gap() float64 { return r.FirstTurnAccuracy() - r.FollowupAccuracy() }

func (r *DialogueReport) score(first bool, toks []string, t *TurnSample, schemas thingtalk.SchemaSource) {
	e := dataset.Example{Words: t.Words, Program: t.Program, Alt: t.Alt}
	if first {
		r.First.score(toks, &e, schemas)
	} else {
		r.Followups.score(toks, &e, schemas)
	}
}

// EvaluateDialogue scores a contextual decoder on multi-turn sessions with
// teacher-forced context: every follow-up decodes against the gold previous
// program, so the follow-up bucket isolates contextual decoding quality from
// error propagation. Sessions fan across workers (0 = GOMAXPROCS);
// predictions are scored in session order, so the report is deterministic
// for any worker count.
func EvaluateDialogue(dec ContextDecoder, sessions [][]TurnSample, schemas thingtalk.SchemaSource, workers int) DialogueReport {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sessions) {
		workers = len(sessions)
	}
	preds := make([][][]string, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= len(sessions) {
					return
				}
				out := make([][]string, len(sessions[si]))
				for ti := range sessions[si] {
					out[ti] = dec.ParseContext(sessions[si][ti].Words, sessions[si][ti].Context)
				}
				preds[si] = out
			}
		}()
	}
	wg.Wait()
	var r DialogueReport
	for si := range sessions {
		for ti := range sessions[si] {
			r.score(ti == 0, preds[si][ti], &sessions[si][ti], schemas)
		}
	}
	return r
}
