package dialogue

import (
	"container/list"
	"sync"
)

// Store is a bounded LRU session store: the last accepted program tokens per
// (session id, skill). The serving tier consults it to build the contextual
// parser's decoding context for follow-up requests, and refreshes it with
// every accepted parse. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[storeKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type storeKey struct {
	session string
	skill   string
}

type storeEntry struct {
	key     storeKey
	program []string
}

// DefaultStoreCapacity bounds a store built with capacity <= 0.
const DefaultStoreCapacity = 1024

// NewStore builds a session store holding at most capacity sessions
// (<= 0 uses DefaultStoreCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{cap: capacity, ll: list.New(), items: map[storeKey]*list.Element{}}
}

// Get returns the last accepted program of a session and marks it
// recently used. The returned slice is shared: callers must not mutate it.
func (s *Store) Get(session, skill string) ([]string, bool) {
	if s == nil || session == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[storeKey{session, skill}]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).program, true
}

// Put records a session's accepted program, evicting the least recently used
// session at capacity.
func (s *Store) Put(session, skill string, program []string) {
	if s == nil || session == "" || len(program) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := storeKey{session, skill}
	if el, ok := s.items[key]; ok {
		el.Value.(*storeEntry).program = program
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&storeEntry{key: key, program: program})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*storeEntry).key)
		s.evictions++
	}
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	Size      int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the hit/miss/eviction counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Size: s.ll.Len(), Hits: s.hits, Misses: s.misses, Evictions: s.evictions}
}
