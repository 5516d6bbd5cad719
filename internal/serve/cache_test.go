package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/thingpedia"
)

func TestCacheSharesOneTrainingRun(t *testing.T) {
	c := NewCache(nil) // memory-only
	var trainCalls atomic.Int64
	train := func() (*model.Parser, error) {
		trainCalls.Add(1)
		return model.Train(toyTrainPairs(), nil, nil, toyConfig(2)), nil
	}

	const key = "k1"
	var wg sync.WaitGroup
	parsers := make([]*model.Parser, 8)
	for i := range parsers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, err := c.GetOrTrain(key, train)
			if err != nil {
				t.Errorf("GetOrTrain: %v", err)
				return
			}
			if hit {
				t.Error("a caller that triggered or waited on training must report a miss")
			}
			parsers[i] = p
		}(i)
	}
	wg.Wait()
	if n := trainCalls.Load(); n != 1 {
		t.Errorf("train ran %d times for one key, want 1", n)
	}
	for _, p := range parsers[1:] {
		if p != parsers[0] {
			t.Error("concurrent callers got different parser instances")
		}
	}

	// A second key trains again; the first stays cached.
	if _, hit, err := c.GetOrTrain("k2", train); err != nil || hit {
		t.Errorf("fresh key: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := c.GetOrTrain(key, train); err != nil || !hit {
		t.Errorf("warm key: hit=%v err=%v, want hit", hit, err)
	}
	if n := trainCalls.Load(); n != 2 {
		t.Errorf("train ran %d times for two keys, want 2", n)
	}
}

func TestCacheDiskSnapshotsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	var trainCalls atomic.Int64
	train := func() (*model.Parser, error) {
		trainCalls.Add(1)
		return model.Train(toyTrainPairs(), nil, nil, toyConfig(3)), nil
	}

	key := "disk-key"
	c1 := NewCache(durable.Open(dir, durable.Options{}))
	p1, hit, err := c1.GetOrTrain(key, train)
	if err != nil || hit {
		t.Fatalf("first GetOrTrain: hit=%v err=%v", hit, err)
	}

	// A fresh Cache over the same directory simulates a process restart: the
	// snapshot must load from disk without retraining and decode identically.
	c2 := NewCache(durable.Open(dir, durable.Options{}))
	p2, hit, err := c2.GetOrTrain(key, train)
	if err != nil {
		t.Fatalf("restart GetOrTrain: %v", err)
	}
	if !hit {
		t.Error("restart should hit the disk snapshot")
	}
	if n := trainCalls.Load(); n != 1 {
		t.Errorf("train ran %d times across restart, want 1", n)
	}
	for _, src := range testSentences() {
		if a, b := strings.Join(p1.Parse(src), " "), strings.Join(p2.Parse(src), " "); a != b {
			t.Fatalf("snapshot-loaded parser decodes %q, original %q", b, a)
		}
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(nil)
	boom := errors.New("boom")
	calls := 0
	train := func() (*model.Parser, error) { calls++; return nil, boom }
	if _, _, err := c.GetOrTrain("bad", train); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrTrain("bad", train); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want boom", err)
	}
	if calls != 1 {
		t.Errorf("failing train ran %d times, want 1 (errors are cached)", calls)
	}
}

func TestKeyTracksLibraryContent(t *testing.T) {
	lib := thingpedia.Builtin()
	k1 := Key(lib, "unit", "genie", "seed=1")
	k2 := Key(thingpedia.Builtin(), "unit", "genie", "seed=1")
	if k1 != k2 {
		t.Error("identical libraries and extras must map to one key")
	}
	if k1 == Key(lib, "unit", "genie", "seed=2") {
		t.Error("different extras must change the key")
	}
	if k1 == Key(thingpedia.SpotifyOnly(), "unit", "genie", "seed=1") {
		t.Error("different libraries must change the key")
	}
	// Extras must not alias across boundaries.
	if Key(lib, "ab", "c") == Key(lib, "a", "bc") {
		t.Error("length-prefixing failed: extras alias")
	}
}
