package dialogue

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/model"
)

// e2eShared trains one contextual parser on synthesized sessions and holds
// the held-out slice, shared across the end-to-end tests (training dominates
// the cost).
var e2eShared struct {
	once    sync.Once
	p       *model.Parser
	holdout []Session
}

// e2eTrainedParser synthesizes multi-turn sessions, trains a contextual
// parser on most of them, and keeps the rest as a held-out eval split drawn
// from the same distribution (the held-out chunks own different RNG streams,
// so their rewrite draws, templates and sampled values are fresh).
func e2eTrainedParser(t *testing.T) (*model.Parser, []Session) {
	t.Helper()
	e2eShared.once.Do(func() {
		sessions := Synthesize(manySeeds(140), testCfg(0))
		if len(sessions) < 40 {
			t.Fatalf("only %d sessions synthesized", len(sessions))
		}
		split := len(sessions) * 3 / 4
		train, holdout := sessions[:split], sessions[split:]
		cfg := model.Config{
			EmbedDim: 28, HiddenDim: 40, LR: 5e-3, Epochs: 14,
			EvalEvery: 1 << 30, PointerGen: true, MaxDecodeLen: 32,
			MinVocabCount: 2, Seed: 11, Contextual: true,
		}
		e2eShared.p = model.Train(Pairs(train), nil, nil, cfg)
		e2eShared.holdout = holdout
	})
	return e2eShared.p, e2eShared.holdout
}

// TestMultiTurnAccuracyGap is the PR's acceptance bound end to end:
// synthesize K-turn sessions, train a contextual parser on the flattened
// pairs, and score a held-out multi-turn split with teacher-forced context.
// Follow-up-turn program accuracy must land within 10 points of first-turn
// accuracy — the contextual head plus context pointer-copy must carry prior
// arguments into follow-up programs about as reliably as the single-turn
// path parses opening commands.
func TestMultiTurnAccuracyGap(t *testing.T) {
	p, holdout := e2eTrainedParser(t)
	report := eval.EvaluateDialogue(p, TurnSamples(holdout), testSchemas(), 0)
	if report.First.Total != len(holdout) || report.Followups.Total == 0 {
		t.Fatalf("eval split shape: %d first turns for %d sessions, %d follow-ups",
			report.First.Total, len(holdout), report.Followups.Total)
	}
	first, follow := report.FirstTurnAccuracy(), report.FollowupAccuracy()
	t.Logf("first-turn %.1f%% (%d), follow-up %.1f%% (%d), gap %.1f",
		first, report.First.Total, follow, report.Followups.Total, report.Gap())
	if first < 60 {
		t.Errorf("first-turn accuracy %.1f%% is degenerate; the gap bound is meaningless", first)
	}
	if gap := report.Gap(); gap > 10 {
		for _, sess := range holdout {
			for i := 1; i < len(sess.Turns); i++ {
				turn := sess.Turns[i]
				if got := p.ParseContext(turn.Words, turn.Context); strings.Join(got, " ") != strings.Join(turn.Target, " ") {
					t.Logf("%s turn %d (%s): src=%v got=%v want=%v",
						sess.ID, i, turn.Rewrite, turn.Words, got, turn.Target)
				}
			}
		}
		t.Errorf("follow-up accuracy %.1f%% trails first-turn %.1f%% by %.1f points (bound: 10)", follow, first, gap)
	}
}

// TestEmptyContextBitParity: the trained contextual parser decodes every
// held-out first turn (empty context) bit-identically on its own and inside
// a window shared with a follow-up turn — Decode's split sends the
// empty-context row down the single-turn path either way.
func TestEmptyContextBitParity(t *testing.T) {
	p, holdout := e2eTrainedParser(t)
	for _, sess := range holdout {
		first, follow := sess.Turns[0], sess.Turns[1]
		a, as := p.ParseScored(first.Words, 1)
		b := p.Decode([]model.Row{
			{Words: follow.Words, Context: follow.Context},
			{Words: first.Words},
		}, model.Policy{})[1]
		if strings.Join(a, " ") != strings.Join(b.Tokens, " ") || as != b.Score {
			t.Fatalf("empty-context decode drifted on %v: %v (%v) != %v (%v)", first.Words, a, as, b.Tokens, b.Score)
		}
		if c := p.ParseContext(first.Words, nil); strings.Join(a, " ") != strings.Join(c, " ") {
			t.Fatalf("ParseContext(nil) drifted on %v: %v != %v", first.Words, a, c)
		}
	}
}
