package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// Toy parsers: one per "domain", trained once per test binary. The control
// plane under test does not care what the parsers know — only that they are
// real *model.Parser values with distinct outputs per domain.

var toyParsers struct {
	once sync.Once
	p    map[string]*model.Parser
}

func toyPairs(verb, fn string) []model.Pair {
	values := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	var pairs []model.Pair
	for _, v := range values {
		pairs = append(pairs, model.Pair{
			Src: []string{verb, v, "now"},
			Tgt: []string{"now", "=>", fn, "param:text", "=", `"`, v, `"`},
		})
	}
	return pairs
}

func toyParser(domain string) *model.Parser {
	toyParsers.once.Do(func() {
		toyParsers.p = map[string]*model.Parser{}
		for domain, spec := range map[string]struct{ verb, fn string }{
			"alpha": {"tweet", "@twitter.post"},
			"beta":  {"email", "@gmail.send"},
		} {
			cfg := model.Config{
				EmbedDim: 24, HiddenDim: 32, LR: 5e-3, Epochs: 30,
				EvalEvery: 100000, PointerGen: true, MaxDecodeLen: 16,
				MinVocabCount: 3, Seed: 1,
			}
			toyParsers.p[domain] = model.Train(toyPairs(spec.verb, spec.fn), nil, nil, cfg)
		}
	})
	return toyParsers.p[domain]
}

// Minimal valid skill-library sources. libV2 differs from libV1 by a
// template, so the checksum changes; libTouched differs only in comments
// and whitespace, so it does not.
func libV1(class string) string {
	return fmt.Sprintf(`class @%s easy {
  action ping(in req text : String) "ping";
}
templates {
  vp "ping %s $x" (x : String) := @%s.ping param:text = $x ;
}
`, class, class, class)
}

func libV2(class string) string {
	return libV1(class) + fmt.Sprintf(`templates {
  vp "poke %s $x" (x : String) := @%s.ping param:text = $x ;
}
`, class, class)
}

func libTouched(class string) string {
	return "// comment only\n" + libV1(class)
}

func writeLib(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name+thingpedia.LibraryExt)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// countingTrain returns a TrainFunc mapping skill name -> toy parser,
// counting builds per skill.
func countingTrain(counts *sync.Map) TrainFunc {
	return func(name string, lib *thingpedia.Library) (*model.Parser, error) {
		c, _ := counts.LoadOrStore(name, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		p := toyParser(name)
		if p == nil {
			return nil, fmt.Errorf("no toy parser for %q", name)
		}
		return p, nil
	}
}

func testConfig(dir string, counts *sync.Map) Config {
	return Config{
		LibDir: dir,
		Serve:  serve.Options{MaxBatch: 4, Workers: 2, MaxQueue: -1},
		Train:  countingTrain(counts),
	}
}

func waitReady(t *testing.T, r *Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

// logBuffer collects the process logger's records; the fleet logs from its
// build goroutines while a test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFor polls until the log holds want: an event is logged after the state
// change a test observes.
func (l *logBuffer) waitFor(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(l.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q in the log:\n%s", want, l.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// captureLog points the process logger at a text handler over the returned
// buffer until the test ends.
func captureLog(t *testing.T) *logBuffer {
	t.Helper()
	l := &logBuffer{}
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(l, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	return l
}

// skillGeneration polls /skills state for the named skill.
// parseSkill routes one request without session state to the named skill.
func parseSkill(r *Registry, ctx context.Context, name string, words []string) ([]string, uint64, error) {
	return r.ParseSession(ctx, name, "", words, nil)
}

func skillGeneration(r *Registry, name string) uint64 {
	for _, s := range r.Skills() {
		if s.Name == name {
			return s.Generation
		}
	}
	return 0
}

func TestFleetRoutesBySkill(t *testing.T) {
	logs := captureLog(t)
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	writeLib(t, dir, "beta", libV1("test.beta"))
	var counts sync.Map
	r, err := New(testConfig(dir, &counts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	ctx := context.Background()
	words := []string{"tweet", "delta", "now"}
	toks, gen, err := parseSkill(r, ctx, "alpha", words)
	if err != nil {
		t.Fatalf("Parse(alpha): %v", err)
	}
	if want := strings.Join(toyParser("alpha").Parse(words), " "); strings.Join(toks, " ") != want {
		t.Errorf("alpha decode = %q, want %q", strings.Join(toks, " "), want)
	}
	if gen == 0 {
		t.Error("generation should be nonzero for a served request")
	}
	bwords := []string{"email", "delta", "now"}
	btoks, _, err := parseSkill(r, ctx, "beta", bwords)
	if err != nil {
		t.Fatalf("Parse(beta): %v", err)
	}
	if want := strings.Join(toyParser("beta").Parse(bwords), " "); strings.Join(btoks, " ") != want {
		t.Errorf("beta decode = %q, want %q", strings.Join(btoks, " "), want)
	}

	if _, _, err := parseSkill(r, ctx, "nosuch", words); !errors.Is(err, ErrUnknownSkill) {
		t.Errorf("unknown skill: err = %v, want ErrUnknownSkill", err)
	}

	// Skills surface: both ready, distinct generations, real checksums.
	infos := r.Skills()
	if len(infos) != 2 {
		t.Fatalf("Skills() = %+v, want 2 entries", infos)
	}
	gens := map[uint64]bool{}
	for _, s := range infos {
		if s.Status != StatusReady {
			t.Errorf("skill %s status = %s, want ready", s.Name, s.Status)
		}
		if len(s.Checksum) != 64 {
			t.Errorf("skill %s checksum = %q", s.Name, s.Checksum)
		}
		gens[s.Generation] = true
		// The swap's record names the skill and generation as attributes.
		logs.waitFor(t, fmt.Sprintf(`msg="fleet: generation live" skill=%s generation=%d `, s.Name, s.Generation))
	}
	if len(gens) != 2 {
		t.Errorf("generations not distinct: %+v", infos)
	}
}

// TestFleetFallbackScoring routes skill-less requests by best
// length-normalized score and checks the choice against the parsers'
// directly computed scores (name-ordered tie-break).
func TestFleetFallbackScoring(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	writeLib(t, dir, "beta", libV1("test.beta"))
	var counts sync.Map
	r, err := New(testConfig(dir, &counts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	for _, words := range [][]string{
		{"tweet", "alpha", "now"},
		{"email", "bravo", "now"},
		{"tweet", "charlie", "now"},
	} {
		wantSkill, wantScore := "", 0.0
		for _, name := range []string{"alpha", "beta"} { // name order = tie-break order
			_, score := toyParser(name).ParseScored(words, 1)
			if wantSkill == "" || score > wantScore {
				wantSkill, wantScore = name, score
			}
		}
		skill, toks, score, gen, err := r.ParseAny(context.Background(), words)
		if err != nil {
			t.Fatalf("ParseAny(%v): %v", words, err)
		}
		if skill != wantSkill || score != wantScore {
			t.Errorf("ParseAny(%v) routed to %s (score %v), want %s (score %v)", words, skill, score, wantSkill, wantScore)
		}
		if wantToks, _ := toyParser(wantSkill).ParseScored(words, 1); strings.Join(toks, " ") != strings.Join(wantToks, " ") {
			t.Errorf("ParseAny(%v) tokens = %q, want %q", words, strings.Join(toks, " "), strings.Join(wantToks, " "))
		}
		if gen == 0 {
			t.Error("fallback answer should carry its shard's generation")
		}
	}
}

// TestFleetHotReloadUnderLoad is the tentpole's -race acceptance test: a
// library edit must hot-swap the skill's parser within one watch interval
// while concurrent requests keep flowing — every request admitted before or
// during the swap is answered (drained on the old snapshot), none dropped.
func TestFleetHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	cfg := testConfig(dir, &counts)
	cfg.Watch = 20 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	gen1 := skillGeneration(r, "alpha")
	if gen1 == 0 {
		t.Fatal("alpha not serving after WaitReady")
	}

	// Concurrent load for the whole reload window.
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		failures atomic.Int64
		served   atomic.Int64
	)
	words := []string{"tweet", "echo", "now"}
	want := strings.Join(toyParser("alpha").Parse(words), " ")
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				toks, _, err := parseSkill(r, context.Background(), "alpha", words)
				if err != nil || strings.Join(toks, " ") != want {
					failures.Add(1)
					return
				}
				served.Add(1)
			}
		}()
	}

	// Edit the library (checksum changes) and wait for the swap.
	time.Sleep(30 * time.Millisecond) // let some pre-swap traffic through
	writeLib(t, dir, "alpha", libV2("test.alpha"))
	deadline := time.Now().Add(15 * time.Second)
	for skillGeneration(r, "alpha") == gen1 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("hot swap never happened (generation still %d)", gen1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Keep load flowing across the post-swap drain, then stop.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Errorf("%d requests dropped or wrong across the hot swap", failures.Load())
	}
	if served.Load() == 0 {
		t.Error("no traffic served during the reload window")
	}
	if c, ok := counts.Load("alpha"); !ok || c.(*atomic.Int64).Load() != 2 {
		t.Errorf("alpha built %v times, want 2 (initial + reload)", c)
	}
	if gen2 := skillGeneration(r, "alpha"); gen2 <= gen1 {
		t.Errorf("generation did not advance: %d -> %d", gen1, gen2)
	}
}

// TestFleetTouchDoesNotRetrain: a stat change whose parsed checksum is
// unchanged (comments/whitespace) must not rebuild or bump the generation.
func TestFleetTouchDoesNotRetrain(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	cfg := testConfig(dir, &counts)
	cfg.Watch = 20 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	gen1 := skillGeneration(r, "alpha")

	writeLib(t, dir, "alpha", libTouched("test.alpha"))
	// Wait for the watcher to see the stat change and settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(30 * time.Millisecond)
		if !r.anyReloading() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reload never settled")
		}
	}
	time.Sleep(60 * time.Millisecond) // a couple more ticks
	if gen := skillGeneration(r, "alpha"); gen != gen1 {
		t.Errorf("comment-only edit bumped generation %d -> %d", gen1, gen)
	}
	if c, _ := counts.Load("alpha"); c.(*atomic.Int64).Load() != 1 {
		t.Errorf("comment-only edit retrained (builds = %d)", c.(*atomic.Int64).Load())
	}
}

// TestFleetAddAndRemoveSkills: the watcher picks up new library files and
// drains removed ones.
func TestFleetAddAndRemoveSkills(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	cfg := testConfig(dir, &counts)
	cfg.Watch = 20 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	betaPath := writeLib(t, dir, "beta", libV1("test.beta"))
	deadline := time.Now().Add(15 * time.Second)
	for skillGeneration(r, "beta") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("added skill never became ready: %+v", r.Skills())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if toks, _, _ := parseSkill(r, context.Background(), "beta", []string{"email", "alpha", "now"}); len(toks) == 0 {
		t.Error("added skill does not serve")
	}

	if err := os.Remove(betaPath); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := parseSkill(r, context.Background(), "beta", []string{"email", "alpha", "now"}); errors.Is(err, ErrUnknownSkill) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("removed skill still routed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(r.Skills()) != 1 {
		t.Errorf("Skills() after removal = %+v", r.Skills())
	}
}

// TestFleetBuildFailureKeepsServing: a broken library edit records the
// error but keeps the previous snapshot serving.
func TestFleetBuildFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	cfg := testConfig(dir, &counts)
	cfg.Watch = 20 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	gen1 := skillGeneration(r, "alpha")

	writeLib(t, dir, "alpha", "class @broken {") // parse error
	deadline := time.Now().Add(10 * time.Second)
	for {
		infos := r.Skills()
		if len(infos) == 1 && infos[0].Error != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("build failure never surfaced: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gen := skillGeneration(r, "alpha"); gen != gen1 {
		t.Errorf("failed build changed generation %d -> %d", gen1, gen)
	}
	if toks, _, _ := parseSkill(r, context.Background(), "alpha", []string{"tweet", "alpha", "now"}); len(toks) == 0 {
		t.Error("old snapshot stopped serving after failed rebuild")
	}
}

// TestFleetCacheSkipsRetrainOnRevert: with a snapshot cache, reverting a
// library to previously seen content must swap without invoking TrainFunc
// again (the checksum-keyed cache hit resolves it).
func TestFleetCacheSkipsRetrainOnRevert(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	var counts sync.Map
	cfg := testConfig(dir, &counts)
	cfg.Watch = 20 * time.Millisecond
	cfg.Cache = serve.NewCache(nil) // memory-only
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	awaitGen := func(not uint64) uint64 {
		deadline := time.Now().Add(15 * time.Second)
		for {
			if g := skillGeneration(r, "alpha"); g != not {
				return g
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation stuck at %d", not)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	gen1 := skillGeneration(r, "alpha")
	writeLib(t, dir, "alpha", libV2("test.alpha"))
	gen2 := awaitGen(gen1)
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	gen3 := awaitGen(gen2)
	if gen3 <= gen2 {
		t.Errorf("revert did not swap a fresh generation: %d -> %d -> %d", gen1, gen2, gen3)
	}
	c, _ := counts.Load("alpha")
	if n := c.(*atomic.Int64).Load(); n != 2 {
		t.Errorf("TrainFunc ran %d times across v1->v2->v1, want 2 (revert must hit the cache)", n)
	}
}
