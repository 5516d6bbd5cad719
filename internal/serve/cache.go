package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/thingpedia"
)

// Key derives the snapshot-cache key for a skill library plus any extra
// discriminators that change the trained parser (scale preset, training
// strategy, seed, model config digest, ...). The library contributes its
// content checksum, so an unchanged library — even re-parsed from source —
// maps to the same key, while any skill/function/template edit changes it.
func Key(lib *thingpedia.Library, extra ...string) string {
	h := sha256.New()
	writeLP := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeLP(lib.Checksum())
	for _, e := range extra {
		writeLP(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache keys trained parser snapshots by skill-library checksum (see Key).
// Hits are served from memory, then from checksum-verified disk snapshots in
// a durable.Store (a corrupt snapshot is quarantined and the last good
// generation served instead); misses train once — concurrent requests for
// the same key share a single training run — and persist the snapshot when a
// store is configured. Re-serving an unchanged Thingpedia library therefore
// never retrains.
//
// Training failures are classified through durable.IsTransient: a transient
// failure (I/O pressure, disk full, timeouts) is not memoised — the next
// GetOrTrain call for the key trains again, and when to make that call is the
// caller's retry clock (the fleet's per-skill backoff); deterministic failures
// stay cached forever — the input is the problem, and any input change
// produces a new key, which is the re-admission path.
type Cache struct {
	store *durable.Store // nil = memory-only

	mu      sync.Mutex
	entries map[string]*cacheEntry

	trainings        atomic.Uint64
	trainFailures    atomic.Uint64
	diskLoadFailures atomic.Uint64
	transientRetries atomic.Uint64
}

type cacheEntry struct {
	once  sync.Once
	ready atomic.Bool // set once p/err are final; read before once.Do to classify hits
	p     *model.Parser
	err   error
	disk  bool // resolved from a disk snapshot rather than training

	// transient marks a transient training failure, written inside once.Do
	// and read under Cache.mu after ready: the next call replaces the entry.
	transient bool
}

// NewCache returns a cache that persists snapshots in store (nil keeps the
// cache memory-only).
func NewCache(store *durable.Store) *Cache {
	return &Cache{store: store, entries: map[string]*cacheEntry{}}
}

// Store exposes the backing durable store (nil when memory-only); the fleet
// surfaces its counters on /metrics.
func (c *Cache) Store() *durable.Store { return c.store }

// CacheStats are the cache's cumulative counters plus those of its backing
// store.
type CacheStats struct {
	Trainings        uint64 // training runs started (cold misses + retries)
	TrainFailures    uint64 // training runs that returned an error
	DiskLoadFailures uint64 // snapshot keys whose disk load failed outright
	TransientRetries uint64 // trainings started after a transient failure
	Store            durable.Stats
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Trainings:        c.trainings.Load(),
		TrainFailures:    c.trainFailures.Load(),
		DiskLoadFailures: c.diskLoadFailures.Load(),
		TransientRetries: c.transientRetries.Load(),
	}
	if c.store != nil {
		s.Store = c.store.Stats()
	}
	return s
}

// GetOrTrain returns the parser for key, reporting whether it was a cache
// hit — resolved from memory or a disk snapshot without this call training
// or waiting on an in-flight training run. On a miss it invokes train —
// once per key, no matter how many goroutines ask; concurrent callers for a
// cold key share the run and all report a miss. A deterministic training
// error is cached (a new key is the retry path); a transient one is returned
// to the callers that shared the failed run and retried by the next call.
func (c *Cache) GetOrTrain(key string, train func() (*model.Parser, error)) (*model.Parser, bool, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case !ok:
		e = &cacheEntry{}
		c.entries[key] = e
	case e.ready.Load() && e.transient:
		// The previous attempt failed transiently: replace the entry so this
		// call re-runs training.
		e = &cacheEntry{}
		c.entries[key] = e
		c.transientRetries.Add(1)
		ok = false
	}
	c.mu.Unlock()
	inMemory := ok && e.ready.Load() // resolved before this call started

	e.once.Do(func() {
		defer e.ready.Store(true)
		if c.loadSnapshot(key, e) {
			return
		}
		c.trainings.Add(1)
		e.p, e.err = train()
		if e.err != nil {
			c.trainFailures.Add(1)
			if durable.IsTransient(e.err) {
				e.transient = true
				slog.Warn("serve: training failed transiently (retried on the next call)", "key", key, "err", e.err)
			}
			return
		}
		if c.store != nil {
			// Persisting is best-effort: a full or read-only disk degrades
			// the cache to memory-only rather than failing the request.
			if err := c.store.Save(key, func(w io.Writer) error { return e.p.Save(w) }); err != nil {
				slog.Warn("serve: persisting snapshot", "key", key, "err", err)
			}
		}
	})
	if e.err != nil {
		return nil, false, e.err
	}
	return e.p, e.disk || inMemory, nil
}

// loadSnapshot resolves the entry from a verified disk snapshot, reporting
// whether it succeeded. A key that has no snapshot is a plain miss; a key
// whose snapshot exists but cannot be loaded is logged and counted — the
// store has already quarantined the corrupt generations, so the retrain
// below repairs the cache instead of hitting the same bad file every
// restart.
func (c *Cache) loadSnapshot(key string, e *cacheEntry) bool {
	if c.store == nil {
		return false
	}
	var p *model.Parser
	err := c.store.Load(key, func(r io.Reader) error {
		var derr error
		p, derr = model.Load(r)
		return derr
	})
	if err == nil {
		e.p, e.disk = p, true
		return true
	}
	if !errors.Is(err, fs.ErrNotExist) {
		c.diskLoadFailures.Add(1)
		slog.Warn("serve: snapshot unreadable (quarantined, retraining)", "key", key, "err", err)
	}
	return false
}
