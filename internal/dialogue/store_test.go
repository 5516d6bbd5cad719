package dialogue

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestStoreLRUAndStats(t *testing.T) {
	s := NewStore(2)
	if _, ok := s.Get("a", "lights"); ok {
		t.Fatal("empty store returned a program")
	}
	s.Put("a", "lights", []string{"p1"})
	s.Put("b", "lights", []string{"p2"})
	if got, ok := s.Get("a", "lights"); !ok || got[0] != "p1" {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	s.Put("c", "lights", []string{"p3"})
	if _, ok := s.Get("b", "lights"); ok {
		t.Error("evicted session b still present")
	}
	if got, ok := s.Get("a", "lights"); !ok || got[0] != "p1" {
		t.Errorf("recently-used session a evicted: %v, %v", got, ok)
	}

	// Same session id under a different skill is a distinct entry.
	s.Put("a", "lights", []string{"p1b"})
	if got, _ := s.Get("a", "lights"); got[0] != "p1b" {
		t.Errorf("Put did not refresh program: %v", got)
	}
	st := s.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want size 2 eviction 1", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats did not count hits/misses: %+v", st)
	}

	// nil and empty-id degenerate uses are safe no-ops.
	var nilStore *Store
	nilStore.Put("x", "y", []string{"p"})
	if _, ok := nilStore.Get("x", "y"); ok {
		t.Error("nil store returned a program")
	}
	if nilStore.Stats() != (StoreStats{}) {
		t.Error("nil store has non-zero state")
	}
	s.Put("", "skill", []string{"p"})
	if size := s.Stats().Size; size != 2 {
		t.Errorf("empty session id was stored; size = %d", size)
	}
}

// TestStoreConcurrent hammers one store from many goroutines; run with -race
// in CI.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("sess-%d", (w*200+i)%96)
				skill := "skill-a"
				if i%2 == 0 {
					skill = "skill-b"
				}
				s.Put(id, skill, []string{"prog", id})
				if got, ok := s.Get(id, skill); ok {
					if len(got) != 2 || got[1] != id {
						t.Errorf("cross-session bleed: Get(%s) = %v", id, got)
					}
				}
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Size > 64 {
		t.Errorf("store exceeded capacity: %d", st.Size)
	}
	if !strings.Contains(fmt.Sprint(st), "Hits") && st.Hits == 0 {
		t.Log("no hits recorded (acceptable under heavy eviction)")
	}
}
