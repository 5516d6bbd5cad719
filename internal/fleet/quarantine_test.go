package fleet

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

func skillStatus(r *Registry, name string) string {
	for _, s := range r.Skills() {
		if s.Name == name {
			return s.Status
		}
	}
	return ""
}

func waitStatus(t *testing.T, r *Registry, name, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := skillStatus(r, name); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("skill %s never reached status %q (at %q)", name, want, skillStatus(r, name))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuarantineLifecycle walks the full deterministic-failure arc: a bad
// library quarantines its skill (StatusQuarantined, no retry storm), a
// touch with identical bytes stays quarantined, and an actual content
// change re-admits it. Run under -race in CI.
func TestQuarantineLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := writeLib(t, dir, "alpha", libV1("test.alpha"))

	var builds atomic.Int64
	var poisoned atomic.Bool
	poisoned.Store(true)
	cfg := Config{
		LibDir: dir,
		Watch:  10 * time.Millisecond,
		Serve:  testConfig(dir, &sync.Map{}).Serve,
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			builds.Add(1)
			if poisoned.Load() {
				return nil, errors.New("library does not typecheck")
			}
			return toyParser("alpha"), nil
		},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	waitStatus(t, r, "alpha", StatusQuarantined)
	if _, _, err := parseSkill(r, context.Background(), "alpha", []string{"ping"}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("quarantined skill parse err = %v, want ErrNotReady", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want exactly 1 before any change", n)
	}

	// Touch: stat changes, bytes do not. The re-admission probe must reject
	// it — no build, still quarantined.
	future := time.Now().Add(2 * time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // several watch ticks
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d after touch, want 1 (same bytes must stay quarantined)", n)
	}
	if got := skillStatus(r, "alpha"); got != StatusQuarantined {
		t.Fatalf("status after touch = %q, want quarantined", got)
	}

	// Content change: re-admitted, built, serving.
	poisoned.Store(false)
	writeLib(t, dir, "alpha", libV2("test.alpha"))
	waitStatus(t, r, "alpha", StatusReady)
	if _, _, err := parseSkill(r, context.Background(), "alpha", []string{"ping", "alpha", "now"}); err != nil {
		t.Fatalf("re-admitted skill parse: %v", err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("builds = %d after re-admission, want 2", n)
	}
}

// TestTransientBuildFailureRetriesWithBackoff: transient failures (the
// trainer hit I/O pressure) must NOT quarantine — the watcher retries on a
// backoff clock with no library change at all.
func TestTransientBuildFailureRetriesWithBackoff(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))

	var builds atomic.Int64
	cfg := Config{
		LibDir:    dir,
		Watch:     10 * time.Millisecond,
		RetryBase: 20 * time.Millisecond,
		RetryMax:  100 * time.Millisecond,
		Serve:     testConfig(dir, &sync.Map{}).Serve,
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			if builds.Add(1) < 3 {
				return nil, durable.MarkTransient(errors.New("trainer disk full"))
			}
			return toyParser("alpha"), nil
		},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	if got := skillStatus(r, "alpha"); got != StatusFailed {
		t.Fatalf("status after transient failure = %q, want failed (not quarantined)", got)
	}
	waitStatus(t, r, "alpha", StatusReady)
	if n := builds.Load(); n != 3 {
		t.Fatalf("builds = %d, want 3 (two transient failures + one success)", n)
	}
}

// TestTransientRetryThroughCache is TestTransientBuildFailureRetriesWithBackoff
// through a snapshot cache: the fleet's backoff is the only retry clock, so a
// retry that comes due trains again instead of meeting a memoised error, and
// the skill is ready well under a second.
func TestTransientRetryThroughCache(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))

	var builds atomic.Int64
	cfg := Config{
		LibDir:    dir,
		Watch:     10 * time.Millisecond,
		RetryBase: 20 * time.Millisecond,
		RetryMax:  100 * time.Millisecond,
		Serve:     testConfig(dir, &sync.Map{}).Serve,
		Cache:     serve.NewCache(nil),
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			if builds.Add(1) < 3 {
				return nil, durable.MarkTransient(errors.New("trainer disk full"))
			}
			return toyParser("alpha"), nil
		},
	}
	start := time.Now()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	waitStatus(t, r, "alpha", StatusReady)
	if took := time.Since(start); took > 700*time.Millisecond {
		t.Fatalf("ready after %v, want well under 1s (the cache must not run its own retry clock)", took)
	}
	if n := builds.Load(); n != 3 {
		t.Fatalf("builds = %d, want 3 (two transient failures + one success)", n)
	}
	if st := cfg.Cache.Stats(); st.TransientRetries != 2 {
		t.Fatalf("cache stats = %+v, want 2 transient retries", st)
	}
}

// TestQuarantineDoesNotEvictServingShard: a skill serving generation N whose
// *new* library revision fails deterministically keeps serving N (last-good)
// and reports the error.
func TestQuarantineDoesNotEvictServingShard(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))

	var poisoned atomic.Bool
	cfg := Config{
		LibDir: dir,
		Watch:  10 * time.Millisecond,
		Serve:  testConfig(dir, &sync.Map{}).Serve,
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			if poisoned.Load() {
				return nil, errors.New("new revision does not typecheck")
			}
			return toyParser("alpha"), nil
		},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	waitStatus(t, r, "alpha", StatusReady)
	gen := skillGeneration(r, "alpha")

	poisoned.Store(true)
	writeLib(t, dir, "alpha", libV2("test.alpha"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		found := false
		for _, s := range r.Skills() {
			if s.Name == "alpha" && s.Error != "" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed rebuild never surfaced an error")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := skillGeneration(r, "alpha"); got != gen {
		t.Fatalf("generation = %d, want last-good %d still serving", got, gen)
	}
	if _, g, err := parseSkill(r, context.Background(), "alpha", []string{"ping", "alpha", "now"}); err != nil || g != gen {
		t.Fatalf("parse on last-good: gen=%d err=%v", g, err)
	}
}
