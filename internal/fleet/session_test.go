package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// ctxToyParser trains one contextual toy parser per test binary: first turns
// are the toyPairs command, follow-ups ("also tweet it") must copy the value
// out of the previous turn's program — it never appears in the follow-up
// sentence, so a correct follow-up decode proves the session context reached
// the model.
var ctxToy struct {
	once sync.Once
	p    *model.Parser
}

func ctxToyParser() *model.Parser {
	ctxToy.once.Do(func() {
		base := toyPairs("tweet", "@twitter.post")
		pairs := make([]model.Pair, 0, 2*len(base))
		for _, pr := range base {
			pairs = append(pairs, pr)
			pairs = append(pairs, model.Pair{
				Src: []string{"also", "tweet", "it"},
				Tgt: pr.Tgt,
				Ctx: pr.Tgt,
			})
		}
		cfg := model.Config{
			EmbedDim: 24, HiddenDim: 32, LR: 5e-3, Epochs: 30,
			EvalEvery: 100000, PointerGen: true, MaxDecodeLen: 16,
			MinVocabCount: 3, Seed: 7, Contextual: true,
		}
		ctxToy.p = model.Train(pairs, nil, nil, cfg)
	})
	return ctxToy.p
}

func ctxTrain() TrainFunc {
	return func(name string, lib *thingpedia.Library) (*model.Parser, error) {
		return ctxToyParser(), nil
	}
}

// sessionMetrics finds one skill's metrics row.
func sessionMetrics(t *testing.T, r *Registry, name string) serve.SkillMetrics {
	t.Helper()
	for _, m := range r.Metrics() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no metrics for skill %q", name)
	return serve.SkillMetrics{}
}

// TestFleetSessionFollowupsAcrossHotSwap is the session tier's -race
// acceptance test: follow-up requests keep resolving against their session's
// stored context from many goroutines while the skill's shard hot-swaps
// underneath them. The store lives on the skill, not the shard, so a session
// opened before the swap must still hit after it (drain-safe handoff).
func TestFleetSessionFollowupsAcrossHotSwap(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	cfg := Config{
		LibDir: dir,
		Watch:  20 * time.Millisecond,
		Serve:  serve.Options{MaxBatch: 4, Workers: 2, MaxQueue: -1},
		// Far more sessions than the swap window can open at any decode
		// speed: an LRU eviction of sess-pre would fail the post-swap check
		// for a reason that has nothing to do with the swap.
		SessionCapacity: 1 << 20,
		Train:           ctxTrain(),
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)
	gen1 := skillGeneration(r, "alpha")

	p := ctxToyParser()
	open := []string{"tweet", "echo", "now"}
	follow := []string{"also", "tweet", "it"}
	wantOpen := strings.Join(p.Parse(open), " ")
	wantFollow := strings.Join(p.ParseContext(follow, p.Parse(open)), " ")
	if wantFollow == strings.Join(p.Parse(follow), " ") {
		t.Fatal("toy task degenerate: follow-up decode does not depend on context")
	}

	// One session opened before the swap, resumed after it.
	ctx := context.Background()
	if toks, _, err := r.ParseSession(ctx, "alpha", "sess-pre", open, nil); err != nil || strings.Join(toks, " ") != wantOpen {
		t.Fatalf("opening turn: %v %v", toks, err)
	}
	m := sessionMetrics(t, r, "alpha")
	if m.Sessions != 1 || m.SessionMisses == 0 {
		t.Fatalf("after opening turn: %+v, want 1 session and a recorded miss", m)
	}

	// Concurrent multi-turn sessions across the whole swap window.
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		turns atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				session := fmt.Sprintf("sess-%d-%d", w, i)
				toks, _, err := r.ParseSession(ctx, "alpha", session, open, nil)
				if err != nil || strings.Join(toks, " ") != wantOpen {
					t.Errorf("%s opening turn across the hot swap: %v %v", session, toks, err)
					return
				}
				toks, _, err = r.ParseSession(ctx, "alpha", session, follow, nil)
				if err != nil || strings.Join(toks, " ") != wantFollow {
					t.Errorf("%s follow-up across the hot swap: %v %v", session, toks, err)
					return
				}
				turns.Add(2)
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond)
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
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if turns.Load() == 0 {
		t.Error("no session traffic flowed during the swap window")
	}
	if m := sessionMetrics(t, r, "alpha"); m.SessionEvictions != 0 {
		t.Fatalf("the store evicted %d of %d sessions: SessionCapacity no longer exceeds what the window opens", m.SessionEvictions, m.Sessions+m.SessionEvictions)
	}

	// The pre-swap session survived the swap: its follow-up resolves against
	// the stored context and counts as a store hit.
	hitsBefore := sessionMetrics(t, r, "alpha").SessionHits
	toks, _, err := r.ParseSession(ctx, "alpha", "sess-pre", follow, nil)
	if err != nil || strings.Join(toks, " ") != wantFollow {
		t.Fatalf("post-swap follow-up on pre-swap session: %v %v", toks, err)
	}
	if hits := sessionMetrics(t, r, "alpha").SessionHits; hits <= hitsBefore {
		t.Errorf("pre-swap session did not hit the store after the swap (hits %d -> %d)", hitsBefore, hits)
	}

	// Explicit context outranks the stored one.
	alt := p.Parse([]string{"tweet", "bravo", "now"})
	wantAlt := strings.Join(p.ParseContext(follow, alt), " ")
	if toks, _, err := r.ParseSession(ctx, "alpha", "sess-pre", follow, alt); err != nil || strings.Join(toks, " ") != wantAlt {
		t.Errorf("explicit context ignored: got %v (err %v), want %s", toks, err, wantAlt)
	}
}

// TestFleetServerSessionHeader drives the session flow through the HTTP
// layer: two POST /parse calls with the same X-Genie-Session resolve the
// follow-up against the stored first-turn program, and /metrics reports the
// store counters.
func TestFleetServerSessionHeader(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	r, err := New(Config{
		LibDir: dir,
		Serve:  serve.Options{MaxBatch: 4, Workers: 2, MaxQueue: -1},
		Train:  ctxTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	defer srv.Close()
	waitReady(t, r)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := ctxToyParser()
	open := []string{"tweet", "delta", "now"}
	follow := []string{"also", "tweet", "it"}
	wantFollow := strings.Join(p.ParseContext(follow, p.Parse(open)), " ")

	post := func(words []string, session string) serve.ParseResponse {
		t.Helper()
		status, pr := postParse(t, ts.URL, serve.ParseRequest{Skill: "alpha", Words: words}, session)
		if status != http.StatusOK {
			t.Fatalf("POST /parse: status %d", status)
		}
		return pr
	}

	post(open, "curl-sess")
	if got := post(follow, "curl-sess"); got.Program != wantFollow {
		t.Errorf("session follow-up over HTTP = %q, want %q", got.Program, wantFollow)
	}
	// Without the header there is no stored context: the follow-up decodes
	// single-turn.
	if got := post(follow, ""); got.Program == wantFollow {
		t.Errorf("headerless request used session context: %q", got.Program)
	}

	var metrics serve.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &metrics)
	if len(metrics.Skills) != 1 || metrics.Skills[0].Sessions != 1 || metrics.Skills[0].SessionHits == 0 {
		t.Errorf("session counters not surfaced on /metrics: %+v", metrics.Skills)
	}
}
