package model

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
)

// TestTrainDigest pins the weights of complete training runs, end to end,
// to the bits recorded before the training state moved into the Trainer:
//
//   - batched: B=16 minibatches with length bucketing, LM pre-training at
//     B=16, and evaluations often enough that early stopping snapshots the
//     best weights and later restores them;
//   - contextual: a B=1 contextual parser trained on first turns and
//     follow-ups carrying Ctx, with LM pre-training sampling one program per
//     step;
//   - resumed: a non-contextual TrainResumable run canceled at a mid-epoch
//     checkpoint and then resumed, with the sha256 of that checkpoint's bytes
//     (the on-disk format a parent build must still be able to resume).
func TestTrainDigest(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		train, val, lm := checkpointPairs()
		cfg := checkpointConfig(16)
		cfg.BucketByLength = true
		cfg.LR = 3e-2
		cfg.Epochs = 12
		cfg.EvalEvery = 2
		cfg.Patience = 2
		cfg.LMSteps = 12
		if got, want := weightDigest(Train(train, val, lm, cfg)), "9235e5986c1ff69f4af896c7ee15f58c4240352086a2e458f93dc54d5dc76060"; got != want {
			t.Errorf("weight digest %s, recorded %s", got, want)
		}
	})
	t.Run("contextual", func(t *testing.T) {
		train, val := toyDialoguePairs()
		var lm [][]string
		for i := range train {
			lm = append(lm, train[i].Tgt)
		}
		cfg := testConfig(5)
		cfg.Contextual = true
		cfg.Dropout = 0.1
		cfg.Epochs = 2
		cfg.EvalEvery = 40
		cfg.Patience = 2
		cfg.PretrainLM = true
		cfg.LMSteps = 30
		cfg.MinVocabCount = 1
		if got, want := weightDigest(Train(train, val, lm, cfg)), "0cb84539744bafdc3a30f1777aa5262f323b076259dd0a8c78d501cda990f434"; got != want {
			t.Errorf("weight digest %s, recorded %s", got, want)
		}
	})
	// A long per-example run: past step 356 both optimizers' bias correction
	// 1−0.9ᵗ rounds to 1, and every product's backward is the one-row path.
	t.Run("contextual-long", func(t *testing.T) {
		train, _ := toyDialoguePairs()
		var lm [][]string
		for i := range train {
			lm = append(lm, train[i].Tgt)
		}
		cfg := testConfig(7)
		cfg.Contextual = true
		cfg.Dropout = 0.1
		cfg.Epochs = 5
		cfg.PretrainLM = true
		cfg.LMSteps = 400
		cfg.MinVocabCount = 1
		if got, want := weightDigest(Train(train, nil, lm, cfg)), "f2f02ae5ff743cded314e2953fcf88c400447b7d691227f50f5f8a8a9015f019"; got != want {
			t.Errorf("weight digest %s, recorded %s", got, want)
		}
	})
	t.Run("resumed", func(t *testing.T) {
		train, val, lm := checkpointPairs()
		cfg := checkpointConfig(4)
		cfg.BucketByLength = true
		store := &memCheckpoints{}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		store.onSave = func(saves int) {
			if saves == 5 {
				cancel()
			}
		}
		opts := TrainOpts{Checkpoint: store, EverySteps: 5}
		if _, err := TrainResumable(ctx, train, val, lm, cfg, opts); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
		}
		store.onSave = nil
		sum := sha256.Sum256(store.data)
		if got, want := hex.EncodeToString(sum[:]), "6f0bdf7643b937af2d632b13f5edcc1f46677e94060811a2f31f0ac0aefa0b91"; got != want {
			t.Errorf("checkpoint digest %s, recorded %s", got, want)
		}
		p, err := TrainResumable(context.Background(), train, val, lm, cfg, opts)
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if got, want := weightDigest(p), "6d342c65da8307bea62e9e7995c0ad291344d1c73b4ac13ca7f7d14d7cce7cba"; got != want {
			t.Errorf("weight digest %s, recorded %s", got, want)
		}
	})
}
