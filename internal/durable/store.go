package durable

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Envelope format of one stored generation:
//
//	magic   "GENIEDUR" (8 bytes)
//	version uint32 little-endian (currently 1)
//	payload caller bytes, streamed through sha256
//	trailer uint64 payload length + 32-byte sha256 of the payload
//
// The trailer makes torn files self-evident: a write that stopped early (or
// a flipped bit anywhere in the payload) fails verification on load, and the
// store falls back to the previous generation instead of handing corrupt
// bytes to the decoder.
const (
	storeMagic   = "GENIEDUR"
	storeVersion = 1
	trailerSize  = 8 + sha256.Size
)

// keepGenerations is how many generations of each key survive a Save: the
// one just written plus the last good one, so a corrupt newest generation
// always has a rollback target.
const keepGenerations = 2

// ErrNotFound reports a key with no stored generations. It wraps
// fs.ErrNotExist so callers that cannot import this package (through the
// model.CheckpointStore interface, say) can still classify it with
// errors.Is(err, fs.ErrNotExist).
var ErrNotFound = fmt.Errorf("durable: not found: %w", fs.ErrNotExist)

// Options configure a Store. The zero value is the real filesystem with
// silent logging.
type Options struct {
	// FS is the filesystem the store writes through (nil = OSFS). Fault
	// injection (internal/faultinject.FaultFS) slots in here.
	FS FS
	// Logf receives quarantine and rollback events (nil discards them).
	Logf func(format string, args ...any)
}

// Stats are the store's cumulative counters, surfaced on /metrics.
type Stats struct {
	Saves        uint64 // generations written durably
	SaveFailures uint64 // Save calls that failed (disk full, I/O error)
	Loads        uint64 // successful loads (any generation)
	LoadFailures uint64 // generations that failed verification or decode
	Quarantined  uint64 // corrupt generations renamed to .corrupt sidecars
	Rollbacks    uint64 // loads answered by an older generation than the newest
}

// Store is a crash-safe generational key/blob store rooted at one directory.
// Generations of key k live in files "k.g<N>"; Save writes generation N+1
// atomically and prunes to the newest keepGenerations; Load verifies the
// newest generation's checksum and rolls back to older ones when it is
// corrupt. All methods are safe for concurrent use.
type Store struct {
	dir  string
	fsys FS
	logf func(format string, args ...any)

	mu      sync.Mutex
	scanned bool
	gens    map[string][]uint64 // per key, ascending
	stats   Stats
}

// Open returns a store rooted at dir. The directory is created (and existing
// generations discovered) lazily on first use, so opening a store on a
// read-only or missing path does not fail until it matters.
func Open(dir string, o Options) *Store {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return &Store{dir: dir, fsys: o.FS, logf: o.Logf, gens: map[string][]uint64{}}
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ensure creates the directory and scans existing generation files once.
// Callers hold s.mu.
func (s *Store) ensure() error {
	if s.scanned {
		return nil
	}
	if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("durable: creating %s: %w", s.dir, err)
	}
	ents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("durable: scanning %s: %w", s.dir, err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		key, gen, ok := parseGenName(e.Name())
		if !ok {
			continue
		}
		s.gens[key] = append(s.gens[key], gen)
	}
	for key := range s.gens {
		g := s.gens[key]
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	s.scanned = true
	return nil
}

// parseGenName splits "key.g<N>" into its key and generation; temp files,
// .corrupt sidecars and foreign files report !ok.
func parseGenName(name string) (key string, gen uint64, ok bool) {
	if strings.HasSuffix(name, ".corrupt") || strings.HasPrefix(name, ".") {
		return "", 0, false
	}
	i := strings.LastIndex(name, ".g")
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(name[i+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

func (s *Store) genPath(key string, gen uint64) string {
	return s.dir + "/" + key + ".g" + strconv.FormatUint(gen, 10)
}

func validKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\") || strings.HasPrefix(key, ".") {
		return fmt.Errorf("durable: invalid key %q", key)
	}
	return nil
}

// Save durably writes one new generation of key: temp file, checksummed
// envelope, fsync, rename into place, directory fsync. Older generations
// beyond keepGenerations are pruned best-effort. write receives the payload
// writer; its error aborts the save with nothing renamed into place.
func (s *Store) Save(key string, write func(w io.Writer) error) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		s.stats.SaveFailures++
		return err
	}
	gens := s.gens[key]
	var gen uint64 = 1
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	if err := s.writeGeneration(key, gen, write); err != nil {
		s.stats.SaveFailures++
		return err
	}
	s.stats.Saves++
	gens = append(gens, gen)
	// Prune beyond the keep window (and any stale sidecar of the pruned
	// generation); failures here are cosmetic and ignored.
	for len(gens) > keepGenerations {
		old := gens[0]
		gens = gens[1:]
		_ = s.fsys.Remove(s.genPath(key, old))
		_ = s.fsys.Remove(s.genPath(key, old) + ".corrupt")
	}
	s.gens[key] = gens
	return nil
}

func (s *Store) writeGeneration(key string, gen uint64, write func(w io.Writer) error) (err error) {
	tmp, err := s.fsys.CreateTemp(s.dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: creating temp for %s: %w", key, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = s.fsys.Remove(tmpName)
		}
	}()
	bw := bufio.NewWriter(tmp)
	var hdr [12]byte
	copy(hdr[:8], storeMagic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	if _, err = bw.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing %s header: %w", key, err)
	}
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(bw, h)}
	if err = write(cw); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing %s payload: %w", key, err)
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(cw.n))
	h.Sum(trailer[8:8])
	if _, err = bw.Write(trailer[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing %s trailer: %w", key, err)
	}
	if err = bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: flushing %s: %w", key, err)
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: syncing %s: %w", key, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", key, err)
	}
	if err = s.fsys.Rename(tmpName, s.genPath(key, gen)); err != nil {
		return fmt.Errorf("durable: publishing %s generation %d: %w", key, gen, err)
	}
	if err = s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("durable: syncing directory for %s: %w", key, err)
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads the newest verifiable generation of key through read. A
// generation whose envelope fails verification — or whose payload read
// callback errors, which from the store's perspective is the same thing: the
// bytes do not decode — is quarantined to a .corrupt sidecar and the next
// older generation is tried (counted as a rollback when one succeeds).
// ErrNotFound (wrapping fs.ErrNotExist) reports a key that has no
// generations at all.
func (s *Store) Load(key string, read func(r io.Reader) error) error {
	if err := validKey(key); err != nil {
		return err
	}
	for {
		s.mu.Lock()
		if err := s.ensure(); err != nil {
			s.mu.Unlock()
			return err
		}
		gens := append([]uint64(nil), s.gens[key]...)
		s.mu.Unlock()
		if len(gens) == 0 {
			return fmt.Errorf("%w (key %s)", ErrNotFound, key)
		}
		if done, err := s.loadNewest(key, gens, read); done {
			return err
		}
	}
}

// loadNewest loads the newest of gens that verifies, quarantining the ones
// above it that do not. It is not done when a generation it tried has been
// pruned by a concurrent Save since gens was listed — newer ones exist, so
// Load lists them again instead of counting a vanished file as a failure.
func (s *Store) loadNewest(key string, gens []uint64, read func(r io.Reader) error) (done bool, err error) {
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		err := s.loadGeneration(key, gen, read)
		if err == nil {
			s.mu.Lock()
			s.stats.Loads++
			if i < len(gens)-1 {
				s.stats.Rollbacks++
			}
			s.mu.Unlock()
			if i < len(gens)-1 {
				s.logf("durable: %s: rolled back to generation %d (newest failed verification)", key, gen)
			}
			return true, nil
		}
		if errors.Is(err, fs.ErrNotExist) && s.pruned(key, gen) {
			return false, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		s.quarantine(key, gen, err)
	}
	return true, fmt.Errorf("durable: %s: every generation failed verification: %w", key, firstErr)
}

// pruned reports whether a Save has moved the keep window of key past gen.
func (s *Store) pruned(key string, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.gens[key]
	return len(gens) > 0 && gens[0] > gen
}

// loadGeneration verifies and decodes one generation file.
func (s *Store) loadGeneration(key string, gen uint64, read func(r io.Reader) error) error {
	f, err := s.fsys.Open(s.genPath(key, gen))
	if err != nil {
		return fmt.Errorf("durable: opening %s generation %d: %w", key, gen, err)
	}
	data, err := io.ReadAll(bufio.NewReader(f))
	cerr := f.Close()
	if err != nil {
		return fmt.Errorf("durable: reading %s generation %d: %w", key, gen, err)
	}
	if cerr != nil {
		return fmt.Errorf("durable: closing %s generation %d: %w", key, gen, cerr)
	}
	if len(data) < 12+trailerSize {
		return fmt.Errorf("durable: %s generation %d truncated (%d bytes)", key, gen, len(data))
	}
	if string(data[:8]) != storeMagic {
		return fmt.Errorf("durable: %s generation %d: bad magic %q", key, gen, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != storeVersion {
		return fmt.Errorf("durable: %s generation %d: unsupported envelope version %d", key, gen, v)
	}
	payload := data[12 : len(data)-trailerSize]
	trailer := data[len(data)-trailerSize:]
	if n := binary.LittleEndian.Uint64(trailer[:8]); n != uint64(len(payload)) {
		return fmt.Errorf("durable: %s generation %d torn: trailer says %d payload bytes, file holds %d", key, gen, n, len(payload))
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], trailer[8:]) {
		return fmt.Errorf("durable: %s generation %d: payload checksum mismatch", key, gen)
	}
	if err := read(bytes.NewReader(payload)); err != nil {
		return fmt.Errorf("durable: %s generation %d: decoding payload: %w", key, gen, err)
	}
	return nil
}

// quarantine moves a generation that failed verification aside so it cannot
// cost another failed load (or a full retrain) on every restart, and drops
// it from the generation index.
func (s *Store) quarantine(key string, gen uint64, cause error) {
	path := s.genPath(key, gen)
	if err := s.fsys.Rename(path, path+".corrupt"); err != nil {
		// The file may have vanished (pruned by a concurrent Save); removal
		// is the same outcome.
		_ = s.fsys.Remove(path)
	}
	s.mu.Lock()
	s.stats.LoadFailures++
	s.stats.Quarantined++
	gens := s.gens[key]
	for i, g := range gens {
		if g == gen {
			s.gens[key] = append(gens[:i], gens[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.logf("durable: %s: generation %d quarantined to %s.corrupt: %v", key, gen, path, cause)
}

// Clear removes every generation (and sidecar) of key.
func (s *Store) Clear(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return err
	}
	var firstErr error
	for _, gen := range s.gens[key] {
		if err := s.fsys.Remove(s.genPath(key, gen)); err != nil && firstErr == nil {
			firstErr = err
		}
		_ = s.fsys.Remove(s.genPath(key, gen) + ".corrupt")
	}
	delete(s.gens, key)
	return firstErr
}

// Generations reports the stored generation numbers of key, ascending
// (diagnostics and tests).
func (s *Store) Generations(key string) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil
	}
	return append([]uint64(nil), s.gens[key]...)
}

// KeyStore is a Store scoped to one key — the shape training checkpoints
// consume (it satisfies model.CheckpointStore).
type KeyStore struct {
	s   *Store
	key string
}

// Key scopes the store to one key.
func (s *Store) Key(key string) *KeyStore { return &KeyStore{s: s, key: key} }

// Save writes one new generation of the key.
func (k *KeyStore) Save(write func(w io.Writer) error) error { return k.s.Save(k.key, write) }

// Load reads the newest verifiable generation of the key.
func (k *KeyStore) Load(read func(r io.Reader) error) error { return k.s.Load(k.key, read) }

// Clear removes every generation of the key.
func (k *KeyStore) Clear() error { return k.s.Clear(k.key) }
