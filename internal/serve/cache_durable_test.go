package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/model"
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

// TestCacheTransientErrorRetriedOnNextCall: a transient training failure
// (disk full, I/O pressure) is not memoised — the cache keeps no retry clock
// of its own, so every later call trains again until one succeeds, and the
// recovered parser is then cached.
func TestCacheTransientErrorRetriedOnNextCall(t *testing.T) {
	c := NewCache(nil)
	var calls atomic.Int64
	fail := true
	train := func() (*model.Parser, error) {
		calls.Add(1)
		if fail {
			return nil, durable.MarkTransient(errors.New("trainer disk full"))
		}
		return model.Train(toyTrainPairs(), nil, nil, toyConfig(2)), nil
	}

	for i := 1; i <= 2; i++ {
		if _, _, err := c.GetOrTrain("k", train); err == nil {
			t.Fatalf("call %d should fail", i)
		}
		if n := calls.Load(); n != int64(i) {
			t.Fatalf("train ran %d times after %d calls, want every call to train", n, i)
		}
	}

	fail = false
	p, hit, err := c.GetOrTrain("k", train)
	if err != nil || p == nil || hit {
		t.Fatalf("call after the failures: p=%v hit=%v err=%v, want a fresh training", p, hit, err)
	}
	st := c.Stats()
	if st.TransientRetries != 2 || st.Trainings != 3 || st.TrainFailures != 2 {
		t.Errorf("stats = %+v, want 2 transient retries / 3 trainings / 2 failures", st)
	}

	// The recovered parser is now cached: further calls are hits.
	if _, hit, err := c.GetOrTrain("k", train); err != nil || !hit {
		t.Fatalf("post-recovery: hit=%v err=%v, want hit", hit, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("train ran %d times, want 3", n)
	}
}

// TestCacheDeterministicErrorNotRetried pins the quarantine half of the
// failure taxonomy: a deterministic failure stays cached (the key embeds the
// input checksum, so changed input = new key = re-admission).
func TestCacheDeterministicErrorNotRetried(t *testing.T) {
	c := NewCache(nil)
	var calls atomic.Int64
	train := func() (*model.Parser, error) {
		calls.Add(1)
		return nil, errors.New("library does not typecheck")
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.GetOrTrain("k", train); err == nil {
			t.Fatal("want cached deterministic error")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deterministic failure retrained %d times, want 1", n)
	}
	if st := c.Stats(); st.TransientRetries != 0 {
		t.Fatalf("stats = %+v, want no transient retries", st)
	}
}

// TestCacheCorruptSnapshotRollsBack: with two stored generations, corrupting
// the newest must roll a restarted cache back to last-good without
// retraining.
func TestCacheCorruptSnapshotRollsBack(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	train := func() (*model.Parser, error) {
		calls.Add(1)
		return model.Train(toyTrainPairs(), nil, nil, toyConfig(3)), nil
	}
	key := "skill"
	c1 := NewCache(durable.Open(dir, durable.Options{}))
	p1, _, err := c1.GetOrTrain(key, train)
	if err != nil {
		t.Fatal(err)
	}
	// A second generation of the same snapshot (a later retrain would write
	// one); then corrupt it on disk.
	if err := c1.Store().Save(key, func(w io.Writer) error { return p1.Save(w) }); err != nil {
		t.Fatal(err)
	}
	gens := c1.Store().Generations(key)
	newest := filepath.Join(dir, fmt.Sprintf("%s.g%d", key, gens[len(gens)-1]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(durable.Open(dir, durable.Options{}))
	p2, hit, err := c2.GetOrTrain(key, train)
	if err != nil {
		t.Fatalf("restart over corrupt newest generation: %v", err)
	}
	if !hit {
		t.Error("rollback load must still count as a disk hit")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("train ran %d times, want 1 (rollback, not retrain)", n)
	}
	st := c2.Stats()
	if st.Store.Rollbacks != 1 || st.Store.Quarantined != 1 {
		t.Fatalf("store stats = %+v, want 1 rollback / 1 quarantined", st.Store)
	}
	for _, src := range testSentences() {
		if a, b := strings.Join(p1.Parse(src), " "), strings.Join(p2.Parse(src), " "); a != b {
			t.Fatalf("rolled-back parser decodes %q, original %q", b, a)
		}
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Errorf("corrupt generation not quarantined: %v", err)
	}
}

// TestCacheUnreadableSnapshotLoggedAndRetrained is the cache.go:82 satellite
// fix: a snapshot that exists but cannot be decoded must be logged, counted,
// and quarantined so it cannot cost a failed load on every restart.
func TestCacheUnreadableSnapshotLoggedAndRetrained(t *testing.T) {
	dir := t.TempDir()
	key := "skill"
	// A present-but-garbage snapshot generation (torn write from a dead
	// process, say).
	seed := durable.Open(dir, durable.Options{})
	if err := seed.Save(key, func(w io.Writer) error {
		_, err := io.WriteString(w, "definitely not a parser snapshot")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	train := func() (*model.Parser, error) {
		calls.Add(1)
		return model.Train(toyTrainPairs(), nil, nil, toyConfig(4)), nil
	}
	logbuf := captureLog(t)
	c := NewCache(durable.Open(dir, durable.Options{}))
	_, hit, err := c.GetOrTrain(key, train)
	if err != nil {
		t.Fatal(err)
	}
	if hit || calls.Load() != 1 {
		t.Fatalf("hit=%v calls=%d, want retrain", hit, calls.Load())
	}
	if st := c.Stats(); st.DiskLoadFailures != 1 {
		t.Fatalf("stats = %+v, want DiskLoadFailures 1", st)
	}
	if !strings.Contains(logbuf.String(), "unreadable") {
		t.Fatalf("unreadable snapshot not logged: %q", logbuf.String())
	}

	// The bad generation was quarantined and the retrain wrote a good one: a
	// fresh process now hits disk.
	c2 := NewCache(durable.Open(dir, durable.Options{}))
	if _, hit, err := c2.GetOrTrain(key, train); err != nil || !hit {
		t.Fatalf("restart after repair: hit=%v err=%v, want disk hit", hit, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("train ran %d times, want 1", n)
	}
}
