package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func saveString(t *testing.T, s *Store, key, val string) {
	t.Helper()
	err := s.Save(key, func(w io.Writer) error {
		_, err := io.WriteString(w, val)
		return err
	})
	if err != nil {
		t.Fatalf("Save(%q): %v", key, err)
	}
}

func loadString(s *Store, key string) (string, error) {
	var buf bytes.Buffer
	err := s.Load(key, func(r io.Reader) error {
		_, err := io.Copy(&buf, r)
		return err
	})
	return buf.String(), err
}

func TestStoreRoundTrip(t *testing.T) {
	s := Open(t.TempDir(), Options{})
	saveString(t, s, "model", "hello generation one")
	got, err := loadString(s, "model")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got != "hello generation one" {
		t.Fatalf("payload mismatch: %q", got)
	}
	st := s.Stats()
	if st.Saves != 1 || st.Loads != 1 || st.LoadFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreMissingKey(t *testing.T) {
	s := Open(t.TempDir(), Options{})
	_, err := loadString(s, "absent")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ErrNotFound must wrap fs.ErrNotExist, got %v", err)
	}
}

func TestStoreKeepsTwoGenerationsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	for i := 1; i <= 4; i++ {
		saveString(t, s, "k", fmt.Sprintf("gen %d", i))
	}
	gens := s.Generations("k")
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("generations = %v, want [3 4]", gens)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("want 2 files on disk, got %d: %v", len(ents), ents)
	}
	got, err := loadString(s, "k")
	if err != nil || got != "gen 4" {
		t.Fatalf("Load = %q, %v", got, err)
	}
}

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

func corruptNewest(t *testing.T, dir, key string, s *Store) string {
	t.Helper()
	gens := s.Generations(key)
	if len(gens) == 0 {
		t.Fatal("no generations to corrupt")
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.g%d", key, gens[len(gens)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStoreRollsBackFromCorruptGeneration(t *testing.T) {
	logs := captureLog(t)
	dir := t.TempDir()
	s := Open(dir, Options{})
	saveString(t, s, "k", "good old")
	saveString(t, s, "k", "bad new")
	path := corruptNewest(t, dir, "k", s)

	got, err := loadString(s, "k")
	if err != nil {
		t.Fatalf("Load after corruption: %v", err)
	}
	if got != "good old" {
		t.Fatalf("rollback payload = %q, want last good", got)
	}
	st := s.Stats()
	if st.Rollbacks != 1 || st.Quarantined != 1 || st.LoadFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt generation not quarantined: %v", err)
	}
	// The quarantine record carries the key, generation and cause as
	// attributes.
	var quarantine string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "quarantined") {
			quarantine = line
		}
	}
	for _, attr := range []string{" key=k ", " generation=2 ", " err="} {
		if !strings.Contains(quarantine, attr) {
			t.Errorf("quarantine record %q lacks %q", quarantine, attr)
		}
	}
	// The quarantined generation must not cost another verification failure.
	if _, err := loadString(s, "k"); err != nil {
		t.Fatalf("second Load: %v", err)
	}
	if st := s.Stats(); st.LoadFailures != 1 {
		t.Fatalf("quarantined generation re-tried: %+v", st)
	}
}

func TestStoreTornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	saveString(t, s, "k", "good old")
	saveString(t, s, "k", strings.Repeat("new payload ", 100))
	gens := s.Generations("k")
	path := filepath.Join(dir, fmt.Sprintf("k.g%d", gens[len(gens)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a prefix of the file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadString(s, "k")
	if err != nil || got != "good old" {
		t.Fatalf("Load = %q, %v; want rollback to last good", got, err)
	}
	if st := s.Stats(); st.Rollbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreDecodeErrorQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	saveString(t, s, "k", "v1")
	saveString(t, s, "k", "v2")
	// The payload verifies but the decoder rejects it (schema change, bad
	// version...): same recovery path as corruption.
	calls := 0
	err := s.Load("k", func(r io.Reader) error {
		calls++
		if calls == 1 {
			return errors.New("decode: unsupported version")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if calls != 2 {
		t.Fatalf("decoder calls = %d, want fallback to older generation", calls)
	}
	if st := s.Stats(); st.Rollbacks != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreAllGenerationsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	saveString(t, s, "k", "v1")
	corruptNewest(t, dir, "k", s)
	_, err := loadString(s, "k")
	if err == nil {
		t.Fatal("want error when every generation is corrupt")
	}
	// Key is now empty; the caller's move is a rebuild.
	if _, err := loadString(s, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantining everything, want ErrNotFound, got %v", err)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := Open(dir, Options{})
	saveString(t, s1, "a", "alpha")
	saveString(t, s1, "a", "alpha2")
	saveString(t, s1, "b", "beta")

	s2 := Open(dir, Options{})
	if got, err := loadString(s2, "a"); err != nil || got != "alpha2" {
		t.Fatalf("reopen a = %q, %v", got, err)
	}
	if got, err := loadString(s2, "b"); err != nil || got != "beta" {
		t.Fatalf("reopen b = %q, %v", got, err)
	}
	// And a further save continues the generation sequence.
	saveString(t, s2, "a", "alpha3")
	if g := s2.Generations("a"); g[len(g)-1] != 3 {
		t.Fatalf("generations after reopen = %v", g)
	}
}

func TestStoreIgnoresForeignAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", ".k.tmp-123", "k.g2.corrupt", "k.gX"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := Open(dir, Options{})
	if g := s.Generations("k"); len(g) != 0 {
		t.Fatalf("foreign files parsed as generations: %v", g)
	}
}

func TestStoreClear(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	saveString(t, s, "k", "v1")
	saveString(t, s, "k", "v2")
	if err := s.Clear("k"); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := loadString(s, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after Clear, got %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("files left after Clear: %v", ents)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s := Open(t.TempDir(), Options{})
	for _, key := range []string{"", "a/b", `a\b`, ".hidden"} {
		if err := s.Save(key, func(io.Writer) error { return nil }); err == nil {
			t.Fatalf("Save(%q) accepted", key)
		}
	}
}

func TestStoreConcurrentSaveLoad(t *testing.T) {
	s := Open(t.TempDir(), Options{})
	saveString(t, s, "k", "seed")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				_ = s.Save("k", func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "writer %d iter %d", i, j)
					return err
				})
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := loadString(s, "k"); err != nil {
					t.Errorf("Load: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// pruneOnOpen runs before, once, before the next file it opens.
type pruneOnOpen struct {
	OSFS
	before func()
}

func (p *pruneOnOpen) Open(name string) (File, error) {
	if f := p.before; f != nil {
		p.before = nil
		f()
	}
	return p.OSFS.Open(name)
}

// TestStoreLoadAfterConcurrentPrune: Saves that prune every generation a Load
// has listed, between its listing and its open, send it back to the list —
// it returns the newest value — and quarantine nothing.
func TestStoreLoadAfterConcurrentPrune(t *testing.T) {
	fsys := &pruneOnOpen{}
	s := Open(t.TempDir(), Options{FS: fsys})
	saveString(t, s, "k", "old")
	fsys.before = func() {
		for i := 0; i < keepGenerations; i++ {
			saveString(t, s, "k", fmt.Sprint("new ", i))
		}
	}
	got, err := loadString(s, "k")
	if want := fmt.Sprint("new ", keepGenerations-1); err != nil || got != want {
		t.Fatalf("Load = %q, %v; want %q", got, err, want)
	}
	if st := s.Stats(); st.Quarantined != 0 || st.LoadFailures != 0 {
		t.Errorf("stats %+v: a pruned generation counted as a failure", st)
	}
}

func TestKeyStore(t *testing.T) {
	s := Open(t.TempDir(), Options{})
	k := s.Key("ckpt")
	err := k.Save(func(w io.Writer) error {
		_, err := io.WriteString(w, "checkpoint")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := k.Load(func(r io.Reader) error { _, e := io.Copy(&buf, r); return e }); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "checkpoint" {
		t.Fatalf("payload = %q", buf.String())
	}
	if err := k.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := k.Load(func(io.Reader) error { return nil }); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist after Clear, got %v", err)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("parse error"), false},
		{ErrNotFound, false},
		{syscall.ENOSPC, true},
		{&os.PathError{Op: "write", Path: "x", Err: syscall.EIO}, true},
		{fmt.Errorf("wrapped: %w", syscall.ECONNRESET), true},
		{os.ErrDeadlineExceeded, true},
		{MarkTransient(errors.New("remote trainer busy")), true},
		{fmt.Errorf("outer: %w", MarkTransient(errors.New("inner"))), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
