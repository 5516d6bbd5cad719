package dialogue

import (
	"repro/internal/eval"
	"repro/internal/model"
)

// Pairs flattens sessions into contextual training pairs: every turn
// becomes one pair, follow-up turns carrying the previous turn's target
// serialization as decoding context.
func Pairs(sessions []Session) []model.Pair {
	var out []model.Pair
	for _, s := range sessions {
		for _, t := range s.Turns {
			out = append(out, model.Pair{Src: t.Words, Tgt: t.Target, Ctx: t.Context})
		}
	}
	return out
}

// TurnSamples converts sessions into the eval package's multi-turn form:
// one ordered TurnSample sequence per session, follow-ups carrying the gold
// previous program as context, which eval.EvaluateDialogue teacher-forces.
func TurnSamples(sessions []Session) [][]eval.TurnSample {
	out := make([][]eval.TurnSample, len(sessions))
	for i, s := range sessions {
		turns := make([]eval.TurnSample, len(s.Turns))
		for j, t := range s.Turns {
			turns[j] = eval.TurnSample{Words: t.Words, Context: t.Context, Program: t.Program}
		}
		out[i] = turns
	}
	return out
}
