package model

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// captureLog points the process logger at a text handler over the returned
// buffer until the test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	return &buf
}

// memCheckpoints is an in-memory CheckpointStore with a save hook, so tests
// can interrupt training at an exact checkpoint.
type memCheckpoints struct {
	mu     sync.Mutex
	data   []byte
	saves  int
	onSave func(saves int)
}

func (m *memCheckpoints) Save(write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	m.mu.Lock()
	m.data = buf.Bytes()
	m.saves++
	n := m.saves
	cb := m.onSave
	m.mu.Unlock()
	if cb != nil {
		cb(n)
	}
	return nil
}

func (m *memCheckpoints) Load(read func(io.Reader) error) error {
	m.mu.Lock()
	data := m.data
	m.mu.Unlock()
	if data == nil {
		return fmt.Errorf("no checkpoint: %w", fs.ErrNotExist)
	}
	return read(bytes.NewReader(data))
}

func (m *memCheckpoints) Clear() error {
	m.mu.Lock()
	m.data = nil
	m.mu.Unlock()
	return nil
}

func checkpointPairs() (train, val []Pair, lm [][]string) {
	verbs := []string{"turn", "set", "make", "switch", "dim"}
	objs := []string{"light", "fan", "heater", "screen"}
	for i := 0; i < 40; i++ {
		v, o := verbs[i%len(verbs)], objs[i%len(objs)]
		src := []string{v, "the", o, fmt.Sprintf("v%d", i%7)}
		tgt := []string{"@io." + o, "." + v, "param:", fmt.Sprintf("v%d", i%7)}
		if i%3 == 0 {
			src = append(src, "now")
			tgt = append(tgt, "now")
		}
		p := Pair{Src: src, Tgt: tgt}
		if i%8 == 7 {
			val = append(val, p)
		} else {
			train = append(train, p)
		}
		lm = append(lm, tgt)
	}
	return train, val, lm
}

func checkpointConfig(batch int) Config {
	return Config{
		EmbedDim:      16,
		HiddenDim:     20,
		LR:            2e-3,
		Dropout:       0.1, // nonzero so the parser RNG stream matters
		Epochs:        3,
		EvalEvery:     9,
		PointerGen:    true,
		PretrainLM:    true,
		LMSteps:       25,
		BatchSize:     batch,
		MaxDecodeLen:  16,
		MinVocabCount: 1,
		Seed:          42,
	}
}

func paramsEqual(t *testing.T, a, b *Parser) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if len(pa[i].W) != len(pb[i].W) {
			t.Fatalf("tensor %d size %d vs %d", i, len(pa[i].W), len(pb[i].W))
		}
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatalf("tensor %d element %d differs: %v vs %v (trajectory not bit-identical)",
					i, j, pa[i].W[j], pb[i].W[j])
			}
		}
	}
}

// TestResumeBitIdentity kills training at a checkpoint and verifies the
// resumed run lands on weights bit-identical to an uninterrupted run — the
// tentpole guarantee: a crash costs wall-clock, never trajectory.
func TestResumeBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name        string
		batch       int
		bucket      bool
		interruptAt int // after this many checkpoint saves
	}{
		{"batch1-midEpoch", 1, false, 3},
		{"batch4-bucketed-midEpoch", 4, true, 2},
		{"batch4-later", 4, false, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, val, lm := checkpointPairs()
			cfg := checkpointConfig(tc.batch)
			cfg.BucketByLength = tc.bucket

			reference := Train(train, val, lm, cfg)

			store := &memCheckpoints{}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store.onSave = func(saves int) {
				if saves == tc.interruptAt {
					cancel()
				}
			}
			_, err := TrainResumable(ctx, train, val, lm, cfg, TrainOpts{Checkpoint: store, EverySteps: 7})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
			}
			store.mu.Lock()
			store.onSave = nil
			store.mu.Unlock()

			logbuf := captureLog(t)
			resumed, err := TrainResumable(context.Background(), train, val, lm, cfg, TrainOpts{
				Checkpoint: store,
				EverySteps: 7,
			})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !strings.Contains(logbuf.String(), "resuming from checkpoint") {
				t.Fatalf("resumed run did not log resume: %q", logbuf.String())
			}
			paramsEqual(t, reference, resumed)
			if store.data != nil {
				t.Fatal("checkpoint not cleared after completion")
			}
		})
	}
}

// TestResumeSurvivesDoubleKill interrupts, resumes, interrupts again, and
// resumes to completion — checkpoints must compose, not just survive one
// crash.
func TestResumeSurvivesDoubleKill(t *testing.T) {
	train, val, lm := checkpointPairs()
	cfg := checkpointConfig(4)
	reference := Train(train, val, lm, cfg)

	store := &memCheckpoints{}
	for _, killAt := range []int{2, 5} {
		target := store.saves + killAt
		ctx, cancel := context.WithCancel(context.Background())
		store.onSave = func(saves int) {
			if saves >= target {
				cancel()
			}
		}
		_, err := TrainResumable(ctx, train, val, lm, cfg, TrainOpts{Checkpoint: store, EverySteps: 5})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("kill at +%d saves: err = %v, want ErrInterrupted", killAt, err)
		}
	}
	store.onSave = nil
	resumed, err := TrainResumable(context.Background(), train, val, lm, cfg, TrainOpts{Checkpoint: store, EverySteps: 5})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	paramsEqual(t, reference, resumed)
}

// TestResumeFingerprintMismatch changes the data under a checkpoint; the
// resumed run must detect it and train fresh rather than splice trajectories.
func TestResumeFingerprintMismatch(t *testing.T) {
	train, val, lm := checkpointPairs()
	cfg := checkpointConfig(1)

	store := &memCheckpoints{}
	ctx, cancel := context.WithCancel(context.Background())
	store.onSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	_, err := TrainResumable(ctx, train, val, lm, cfg, TrainOpts{Checkpoint: store, EverySteps: 5})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	store.onSave = nil

	// Same store, different seed: the checkpoint no longer applies.
	cfg2 := cfg
	cfg2.Seed = 99
	logbuf := captureLog(t)
	got, err := TrainResumable(context.Background(), train, val, lm, cfg2, TrainOpts{Checkpoint: store})
	if err != nil {
		t.Fatalf("mismatched resume: %v", err)
	}
	if !strings.Contains(logbuf.String(), "different training recipe") {
		t.Fatalf("expected fingerprint-mismatch log, got %q", logbuf.String())
	}
	paramsEqual(t, Train(train, val, lm, cfg2), got)
}

// TestResumeCorruptCheckpoint feeds garbage bytes; training must fall back
// to a fresh run, not fail.
func TestResumeCorruptCheckpoint(t *testing.T) {
	train, val, lm := checkpointPairs()
	cfg := checkpointConfig(1)
	store := &memCheckpoints{data: []byte("not a checkpoint")}
	got, err := TrainResumable(context.Background(), train, val, lm, cfg, TrainOpts{Checkpoint: store})
	if err != nil {
		t.Fatalf("TrainResumable: %v", err)
	}
	paramsEqual(t, Train(train, val, lm, cfg), got)
}

// TestNilCheckpointStoreMatchesTrain pins TrainResumable's no-op path.
func TestNilCheckpointStoreMatchesTrain(t *testing.T) {
	train, val, lm := checkpointPairs()
	cfg := checkpointConfig(4)
	got, err := TrainResumable(context.Background(), train, val, lm, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	paramsEqual(t, Train(train, val, lm, cfg), got)
}

// TestCheckpointTruncatedSlicesDoNotPreallocate: a checkpoint stream that
// ends right after a slice length of 2^24 — of a weight tensor, or of the
// example order — must fail on the missing elements without first sizing a
// slice for all of them.
func TestCheckpointTruncatedSlicesDoNotPreallocate(t *testing.T) {
	var empty bytes.Buffer
	if err := writeCheckpoint(&empty, &trainCheckpoint{}); err != nil {
		t.Fatal(err)
	}
	// An empty checkpoint ends in eight u64s: the weights count, adamT, the
	// two moment counts, the order and starts lengths, the two draw counts.
	weightsOff := empty.Len() - 8*8
	orderOff := weightsOff + 4*8
	u64s := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	for name, stream := range map[string][]byte{
		"weights": u64s(append([]byte(nil), empty.Bytes()[:weightsOff]...), 1, 1<<24, 7),
		"order":   u64s(append([]byte(nil), empty.Bytes()[:orderOff]...), 1<<24, 7),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readCheckpoint(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "EOF") {
			t.Fatalf("%s: readCheckpoint of a truncated slice: err = %v, want an EOF error", name, err)
		}
		// make([]float64, 1<<24) is 128 MiB; reading one element costs bytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: readCheckpoint allocated %d MiB for a %d-byte stream", name, grew>>20, len(stream))
		}
	}
}

// TestResumeMisfitCheckpoint: a well-formed checkpoint with this run's
// fingerprint that does not fit the run — 1 tensor instead of 21, or a batch
// offset past the examples — is treated like an unreadable one: logged,
// cleared, and training starts fresh, rather than an error beside an
// untrained parser or a panic.
func TestResumeMisfitCheckpoint(t *testing.T) {
	train, val, lm := checkpointPairs()
	cfg := checkpointConfig(1)
	fp := trainFingerprint(cfg, train, val, lm)

	interrupted := &memCheckpoints{}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted.onSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	if _, err := TrainResumable(ctx, train, val, lm, cfg, TrainOpts{Checkpoint: interrupted, EverySteps: 5}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}
	farOffset, err := readCheckpoint(bytes.NewReader(interrupted.data))
	if err != nil {
		t.Fatal(err)
	}
	farOffset.loop.starts[len(farOffset.loop.starts)-1] = len(train)

	reference := Train(train, val, lm, cfg)
	for name, c := range map[string]*trainCheckpoint{
		"one tensor": {fingerprint: fp, weights: [][]float64{{1}}},
		"far offset": farOffset,
	} {
		var buf bytes.Buffer
		if err := writeCheckpoint(&buf, c); err != nil {
			t.Fatal(err)
		}
		logbuf := captureLog(t)
		got, err := TrainResumable(context.Background(), train, val, lm, cfg, TrainOpts{
			Checkpoint: &memCheckpoints{data: buf.Bytes()},
		})
		if err != nil {
			t.Fatalf("%s: TrainResumable: %v", name, err)
		}
		if !strings.Contains(logbuf.String(), "does not fit") {
			t.Errorf("%s: expected a misfit log, got %q", name, logbuf.String())
		}
		paramsEqual(t, reference, got)
	}
}

// TestResumeFingerprintCoversContext: two contextual runs that differ only in
// a context token must not resume each other's checkpoints, while a
// non-contextual parser, which ignores contexts, fingerprints them alike.
func TestResumeFingerprintCoversContext(t *testing.T) {
	train, val := toyDialoguePairs()
	other := append([]Pair(nil), train...)
	for i := range other {
		if len(other[i].Ctx) > 0 {
			ctx := append([]string(nil), other[i].Ctx...)
			ctx[len(ctx)-1] = "other"
			other[i].Ctx = ctx
			break
		}
	}
	cfg := testConfig(1)
	if trainFingerprint(cfg, train, val, nil) != trainFingerprint(cfg, other, val, nil) {
		t.Error("non-contextual fingerprint depends on Ctx")
	}
	cfg.Contextual = true
	if trainFingerprint(cfg, train, val, nil) == trainFingerprint(cfg, other, val, nil) {
		t.Error("contextual fingerprint ignores Ctx")
	}
}
