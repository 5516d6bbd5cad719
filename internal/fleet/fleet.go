// Package fleet is the parser-fleet control plane: Genie's premise is that
// every skill library generates its own semantic parser (one grammar, one
// synthesized dataset, one trained model per library), and this package
// manages a fleet of them behind one endpoint. A Registry scans a library
// directory (one <skill>.tt DSL source per skill), trains or cache-loads a
// parser per skill in the background, and serves each through its own
// serve.Batcher shard; a watcher polls the directory and hot-swaps a
// skill's shard when its library checksum changes, draining in-flight
// requests on the old snapshot. The HTTP Server routes POST /parse by skill
// — or, when no skill is named, scores the request against every ready
// shard and answers with the best length-normalized hypothesis — and
// exposes the fleet's live state on GET /skills and GET /metrics.
//
// Layering: internal/serve owns one parser's serving mechanics (micro-
// batching, admission control, drain) and the wire types; this package owns
// the many-parser concerns — lifecycle, routing, hot reload, observability.
//
//genielint:ctx-strict
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dialogue"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// TrainFunc produces a trained parser for one skill library; the registry
// calls it in the background (through the snapshot cache when one is
// configured) and recovers panics into errors, so a degenerate library
// fails that skill rather than the fleet.
type TrainFunc func(name string, lib *thingpedia.Library) (*model.Parser, error)

// Config assembles a Registry.
type Config struct {
	// LibDir is the skill-library directory (one <skill>.tt per skill).
	LibDir string
	// Watch is the directory poll interval; 0 disables hot reload.
	Watch time.Duration
	// Serve configures each skill's Batcher shard (batch window, workers,
	// beam, admission queue bound).
	Serve serve.Options
	// SessionCapacity bounds each skill's dialogue session store — the LRU
	// map from X-Genie-Session ids to the last accepted program, which
	// contextual parsers consume as follow-up decoding context (<= 0 uses
	// dialogue.DefaultStoreCapacity).
	SessionCapacity int
	// Train builds a parser for a (possibly changed) library. Required.
	Train TrainFunc
	// Cache, when set, keys trained snapshots by library checksum so an
	// unchanged — or reverted — library never retrains.
	Cache *serve.Cache
	// CacheExtra are additional cache-key discriminators (scale, strategy,
	// seed, ...) that change what Train produces.
	CacheExtra []string
	// TrainWorkers bounds concurrent background training runs (default 1:
	// training is CPU-saturating, so queue rather than thrash).
	TrainWorkers int
	// RetryBase/RetryMax bound the capped exponential backoff applied to
	// *transient* build failures — I/O pressure, disk full, timeouts
	// (defaults 1s / 1m). Deterministic failures don't retry on a clock:
	// they quarantine the skill until its library bytes change.
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Routing errors. The HTTP layer maps ErrUnknownSkill to 404 and
// ErrNotReady to 503; serve.ErrOverloaded passes through as 429.
var (
	ErrUnknownSkill = errors.New("fleet: unknown skill")
	ErrNotReady     = errors.New("fleet: skill has no ready parser")
)

// Status is a skill's lifecycle state as surfaced on /skills.
const (
	StatusTraining    = "training"    // first parser still building; not serving
	StatusReady       = "ready"       // serving
	StatusReloading   = "reloading"   // serving the old snapshot while the new one trains
	StatusFailed      = "failed"      // no parser and the last (transient) build failure awaits retry
	StatusQuarantined = "quarantined" // deterministic build failure; re-admitted when the library bytes change
)

// shard is one skill's immutable serving state: a trained parser behind its
// own batcher. Hot reload swaps the whole shard pointer atomically; the old
// shard's batcher then drains, so in-flight requests complete on the
// snapshot they were admitted to.
type shard struct {
	parser     *model.Parser
	batcher    *serve.Batcher
	checksum   string
	generation uint64
}

// skill is one entry of the registry.
type skill struct {
	// name and path are fixed at construction and read lock-free.
	name string
	path string

	mu        sync.Mutex
	entry     thingpedia.DirEntry // guarded by mu; stat signal at the last (re)load
	err       error               // guarded by mu; last build error, if any
	reloading bool                // guarded by mu; a background build is in flight
	removed   bool                // guarded by mu

	// Failure-classified recovery state, guarded by mu. A deterministic
	// build failure quarantines the skill: quarantineSum pins the raw
	// library bytes that failed, and the watcher re-admits only once they
	// change. A transient failure schedules a retry at retryAt with capped
	// exponential backoff.
	quarantined   bool
	quarantineSum string
	retryAt       time.Time
	backoff       time.Duration

	shard atomic.Pointer[shard]

	// sessions is the skill's dialogue session store. It lives on the skill,
	// not the shard, so a hot-swap keeps every live session: requests
	// draining on the old snapshot and requests arriving on the new one
	// read and write the same store (drain-safe session handoff).
	sessions *dialogue.Store

	requests atomic.Int64
	errs     atomic.Int64 // answered with a non-shed error (see SkillMetrics.Errors)
	lat      serve.LatencyRing
}

// Registry manages the fleet: skill discovery, background training,
// checksum-watch hot reload, and per-skill routing.
type Registry struct {
	cfg      Config
	start    time.Time     // process serving since (uptime_seconds on /metrics)
	gen      atomic.Uint64 // fleet-wide snapshot generation counter
	trainSem chan struct{}

	mu     sync.RWMutex
	skills map[string]*skill

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New scans cfg.LibDir, starts a background build for every discovered
// skill, and — when cfg.Watch > 0 — starts the checksum watcher. It returns
// once the fleet is managing (not once it is serving); use WaitReady to
// block until every initial build resolved.
func New(cfg Config) (*Registry, error) {
	if cfg.Train == nil {
		return nil, errors.New("fleet: Config.Train is required")
	}
	if cfg.TrainWorkers <= 0 {
		cfg.TrainWorkers = 1
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Second
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Minute
	}
	entries, err := thingpedia.ScanLibraryDir(cfg.LibDir)
	if err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:      cfg,
		start:    time.Now(),
		trainSem: make(chan struct{}, cfg.TrainWorkers),
		skills:   map[string]*skill{},
		stop:     make(chan struct{}),
	}
	for _, e := range entries {
		r.addSkill(e)
	}
	if cfg.Watch > 0 {
		r.wg.Add(1)
		go r.watch()
	}
	return r, nil
}

// addSkill registers a discovered library and spawns its first build.
// Callers must not hold r.mu.
func (r *Registry) addSkill(e thingpedia.DirEntry) {
	sk := &skill{
		name: e.Name, path: e.Path, entry: e, reloading: true,
		sessions: dialogue.NewStore(r.cfg.SessionCapacity),
	}
	r.mu.Lock()
	r.skills[sk.name] = sk
	r.mu.Unlock()
	r.spawnReload(sk, e)
}

// spawnReload runs one build of sk in the background; sk.reloading must
// already be true (set under sk.mu by the caller).
func (r *Registry) spawnReload(sk *skill, e thingpedia.DirEntry) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			sk.mu.Lock()
			sk.reloading = false
			sk.mu.Unlock()
		}()
		select {
		case r.trainSem <- struct{}{}:
			defer func() { <-r.trainSem }()
		case <-r.stop:
			return
		}
		r.reload(sk, e)
	}()
}

// reload parses the skill's library, trains (or cache-loads) a parser for
// its checksum, and atomically swaps it in. A build failure keeps the old
// shard serving.
func (r *Registry) reload(sk *skill, e thingpedia.DirEntry) {
	lib, err := thingpedia.LoadLibraryFile(sk.path)
	if err != nil {
		r.buildFailed(sk, e, err)
		return
	}
	sum := lib.Checksum()
	if cur := sk.shard.Load(); cur != nil && cur.checksum == sum {
		// Stat changed but content (by checksum) did not — e.g. touch(1) or
		// a formatting-only edit the checksum canonicalizes away.
		sk.mu.Lock()
		sk.entry, sk.err = e, nil
		sk.clearRecoveryLocked()
		sk.mu.Unlock()
		return
	}
	slog.Info("fleet: building parser", "skill", sk.name, "checksum", sum)
	start := time.Now()
	parser, err := r.train(sk.name, lib)
	if err != nil {
		r.buildFailed(sk, e, err)
		return
	}
	gen := r.gen.Add(1)
	parser.SetMeta(model.SnapshotMeta{
		LibraryChecksum: sum,
		Generation:      gen,
		Note:            "fleet:" + sk.name,
	})
	next := &shard{
		parser:     parser,
		batcher:    serve.NewBatcher(parser, r.cfg.Serve),
		checksum:   sum,
		generation: gen,
	}
	// The removed check and the swap share sk.mu with the watcher's
	// removal (which also swaps under it), so a skill deleted while its
	// build was in flight can never have the fresh shard — and its worker
	// goroutines — swapped in after the drain.
	sk.mu.Lock()
	if sk.removed {
		sk.mu.Unlock()
		next.batcher.Close()
		slog.Info("fleet: removed during build, discarding generation", "skill", sk.name, "generation", gen)
		return
	}
	old := sk.shard.Swap(next)
	sk.entry, sk.err = e, nil
	sk.clearRecoveryLocked()
	sk.mu.Unlock()
	slog.Info("fleet: generation live", "skill", sk.name, "generation", gen,
		"checksum", sum, "elapsed", time.Since(start).Round(time.Millisecond))
	if old != nil {
		// Drain in the background: requests admitted before the swap finish
		// on the old snapshot; new requests already route to the new shard.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			old.batcher.Close()
		}()
	}
}

// clearRecoveryLocked resets the failure-recovery state after a successful
// build; callers hold sk.mu.
func (sk *skill) clearRecoveryLocked() {
	sk.quarantined = false
	sk.quarantineSum = ""
	sk.retryAt = time.Time{}
	sk.backoff = 0
}

// buildFailed records a failed build, classified through durable.IsTransient:
// a transient failure (I/O pressure, disk full, timeout) schedules a
// backoff retry; a deterministic one (the library itself is bad — it will
// fail the same way every time) quarantines the skill until its bytes
// change. Either way any previously serving shard keeps serving.
func (r *Registry) buildFailed(sk *skill, e thingpedia.DirEntry, err error) {
	transient := durable.IsTransient(err)
	sk.mu.Lock()
	sk.err = err
	// Absorb the stat so the watcher doesn't re-trigger on the same bytes;
	// recovery is driven by retryAt / quarantineSum from here.
	sk.entry = e
	if transient {
		sk.backoff = max(r.cfg.RetryBase, 2*sk.backoff)
		if sk.backoff > r.cfg.RetryMax {
			sk.backoff = r.cfg.RetryMax
		}
		sk.retryAt = time.Now().Add(sk.backoff)
		backoff := sk.backoff
		sk.mu.Unlock()
		slog.Warn("fleet: build failed transiently", "skill", sk.name, "backoff", backoff, "err", err)
		return
	}
	sk.quarantined = true
	sk.quarantineSum = rawFileChecksum(sk.path)
	sk.retryAt = time.Time{}
	sk.mu.Unlock()
	slog.Warn("fleet: build failed deterministically, quarantined until the library changes", "skill", sk.name, "err", err)
}

// rawFileChecksum hashes a library file's raw bytes. Quarantine pins this —
// not the parsed library checksum, which may not exist when parsing itself
// is what failed — so the re-admission probe works for any failure.
func rawFileChecksum(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// train invokes the configured TrainFunc through the snapshot cache (when
// present) and converts panics into errors.
func (r *Registry) train(name string, lib *thingpedia.Library) (p *model.Parser, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("fleet: training %s panicked: %v", name, rec)
		}
	}()
	if r.cfg.Cache != nil {
		key := serve.Key(lib, append([]string{"fleet"}, r.cfg.CacheExtra...)...)
		p, hit, err := r.cfg.Cache.GetOrTrain(key, func() (*model.Parser, error) {
			return r.cfg.Train(name, lib)
		})
		if hit {
			slog.Info("fleet: snapshot cache hit, skipped training", "skill", name, "key", key)
		}
		return p, err
	}
	return r.cfg.Train(name, lib)
}

// watch is the hot-reload loop: every cfg.Watch it re-scans the library
// directory and reacts to added, changed and removed skills. Change
// detection is two-stage — a cheap stat compare gates re-parsing, and the
// parsed library's checksum gates retraining — so an idle tick costs one
// ReadDir and an edit that does not change the checksum never retrains.
func (r *Registry) watch() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.Watch)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		entries, err := thingpedia.ScanLibraryDir(r.cfg.LibDir)
		if err != nil {
			slog.Warn("fleet: watch", "err", err)
			continue
		}
		seen := map[string]bool{}
		for _, e := range entries {
			seen[e.Name] = true
			r.mu.RLock()
			sk := r.skills[e.Name]
			r.mu.RUnlock()
			if sk == nil {
				slog.Info("fleet: new skill library", "skill", e.Name, "path", e.Path)
				r.addSkill(e)
				continue
			}
			reload, reentry := false, e
			sk.mu.Lock()
			switch {
			case sk.reloading:
				// A build is already in flight; its result resolves first.
			case e.Changed(sk.entry):
				if sk.quarantined {
					// Re-admission probe: the stat changed, but a quarantined
					// skill only gets another build when its bytes actually
					// did — otherwise absorb the stat and stay quarantined.
					if sum := rawFileChecksum(e.Path); sum != "" && sum == sk.quarantineSum {
						sk.entry = e
						break
					}
					slog.Info("fleet: quarantined library changed, re-admitting", "skill", sk.name)
				}
				reload = true
			case sk.err != nil && !sk.quarantined && !sk.retryAt.IsZero() && time.Now().After(sk.retryAt):
				// Transient failure past its backoff: retry the same entry.
				slog.Info("fleet: retrying build after transient failure", "skill", sk.name)
				reload, reentry = true, sk.entry
			}
			if reload {
				sk.reloading = true
			}
			sk.mu.Unlock()
			if reload {
				r.spawnReload(sk, reentry)
			}
		}
		// Removed libraries: stop routing, then drain.
		r.mu.Lock()
		var removed []*skill
		for name, sk := range r.skills {
			if !seen[name] {
				delete(r.skills, name)
				removed = append(removed, sk)
			}
		}
		r.mu.Unlock()
		for _, sk := range removed {
			slog.Info("fleet: library removed, draining", "skill", sk.name)
			sk.mu.Lock()
			sk.removed = true
			sh := sk.shard.Swap(nil)
			sk.mu.Unlock()
			if sh != nil {
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					sh.batcher.Close()
				}()
			}
		}
	}
}

// WaitReady blocks until no skill has a build in flight (every skill is
// serving or failed), or ctx ends.
func (r *Registry) WaitReady(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if !r.anyReloading() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return ErrNotReady
		case <-tick.C:
		}
	}
}

func (r *Registry) anyReloading() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, sk := range r.skills {
		sk.mu.Lock()
		rel := sk.reloading
		sk.mu.Unlock()
		if rel {
			return true
		}
	}
	return false
}

// Close stops the watcher and background builds, then drains every shard
// (all admitted requests are answered before Close returns).
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.mu.Lock()
	skills := make([]*skill, 0, len(r.skills))
	for _, sk := range r.skills {
		skills = append(skills, sk)
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, sk := range skills {
		if sh := sk.shard.Swap(nil); sh != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.batcher.Close()
			}()
		}
	}
	wg.Wait()
}

func (r *Registry) skill(name string) *skill {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.skills[name]
}

// readyShards snapshots the currently serving (skill, shard) pairs in
// skill-name order.
func (r *Registry) readyShards() []*skill {
	r.mu.RLock()
	out := make([]*skill, 0, len(r.skills))
	for _, sk := range r.skills {
		out = append(out, sk)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ParseSession routes one request to the named skill's shard; the returned
// generation identifies the snapshot that answered. prior is the previous
// turn's program tokens supplied explicitly by the caller; when it is empty
// and session names an X-Genie-Session, the skill's session store supplies
// it instead. An accepted parse is recorded back under the session id,
// becoming the next follow-up's context. On a non-contextual shard, or with
// no session and no prior, the session flow is a no-op.
func (r *Registry) ParseSession(ctx context.Context, name, session string, words, prior []string) (toks []string, generation uint64, err error) {
	sk := r.skill(name)
	if sk == nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownSkill, name)
	}
	sh := sk.shard.Load()
	if sh == nil {
		sk.errs.Add(1)
		return nil, 0, fmt.Errorf("%w: %q", ErrNotReady, name)
	}
	contextual := sh.batcher.Contextual()
	if contextual && len(prior) == 0 && session != "" {
		prior, _ = sk.sessions.Get(session, name)
	}
	sk.requests.Add(1)
	start := time.Now()
	toks, err = sh.batcher.ParseContextCtx(ctx, words, prior)
	for errors.Is(err, serve.ErrClosed) {
		// A hot swap closed the shard between the load above and admission:
		// the request never ran, so it goes to the shard that replaced it.
		next := sk.shard.Load()
		if next == nil || next == sh {
			break
		}
		sh = next
		toks, err = sh.batcher.ParseContextCtx(ctx, words, prior)
	}
	if err != nil {
		// Sheds have their own counter (the batcher's); everything else —
		// expired deadline budgets, decode failures, closed shards — is an
		// error this skill answered with.
		if !errors.Is(err, serve.ErrOverloaded) {
			sk.errs.Add(1)
		}
		return nil, sh.generation, err
	}
	sk.lat.Observe(float64(time.Since(start).Microseconds()) / 1000)
	if contextual && session != "" && len(toks) > 0 {
		sk.sessions.Put(session, name, toks)
	}
	return toks, sh.generation, nil
}

// ParseAny is the fallback router for requests that do not name a skill: it
// submits the sentence to every ready shard as a scored decode and answers
// with the best length-normalized hypothesis (ties broken by skill name, so
// routing is deterministic). Shards that shed or fail are skipped; if every
// shard shed, the fleet as a whole is overloaded and ErrOverloaded
// propagates.
func (r *Registry) ParseAny(ctx context.Context, words []string) (skillName string, toks []string, score float64, generation uint64, err error) {
	type answer struct {
		name  string
		toks  []string
		score float64
		gen   uint64
		err   error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers []answer
	)
	for _, sk := range r.readyShards() {
		sh := sk.shard.Load()
		if sh == nil {
			continue
		}
		wg.Add(1)
		go func(sk *skill, sh *shard) {
			defer wg.Done()
			sk.requests.Add(1)
			start := time.Now()
			t, s, e := sh.batcher.ParseScoredCtx(ctx, words)
			if e == nil {
				sk.lat.Observe(float64(time.Since(start).Microseconds()) / 1000)
			} else if !errors.Is(e, serve.ErrOverloaded) {
				sk.errs.Add(1)
			}
			mu.Lock()
			answers = append(answers, answer{name: sk.name, toks: t, score: s, gen: sh.generation, err: e})
			mu.Unlock()
		}(sk, sh)
	}
	wg.Wait()
	if len(answers) == 0 {
		return "", nil, 0, 0, ErrNotReady
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].name < answers[j].name })
	best := -1
	allShed := true
	for i := range answers {
		if answers[i].err != nil {
			if !errors.Is(answers[i].err, serve.ErrOverloaded) {
				allShed = false
			}
			continue
		}
		allShed = false
		if best < 0 || answers[i].score > answers[best].score {
			best = i
		}
	}
	if best < 0 {
		if allShed {
			return "", nil, 0, 0, serve.ErrOverloaded
		}
		return "", nil, 0, 0, answers[0].err
	}
	a := answers[best]
	return a.name, a.toks, a.score, a.gen, nil
}

// Skills reports every skill's lifecycle state, sorted by name.
func (r *Registry) Skills() []serve.SkillInfo {
	var out []serve.SkillInfo
	for _, sk := range r.readyShards() {
		sh := sk.shard.Load()
		sk.mu.Lock()
		info := serve.SkillInfo{Name: sk.name, Path: sk.path}
		switch {
		case sh != nil && sk.reloading:
			info.Status = StatusReloading
		case sh != nil:
			info.Status = StatusReady
		case sk.quarantined:
			info.Status = StatusQuarantined
		case sk.err != nil:
			info.Status = StatusFailed
		default:
			info.Status = StatusTraining
		}
		if sk.err != nil {
			info.Error = sk.err.Error()
		}
		sk.mu.Unlock()
		if sh != nil {
			info.Checksum = sh.checksum
			info.Generation = sh.generation
		}
		out = append(out, info)
	}
	return out
}

// Uptime is how long this registry has been serving.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Metrics reports every skill's live serving metrics, sorted by name.
func (r *Registry) Metrics() []serve.SkillMetrics {
	var out []serve.SkillMetrics
	for _, sk := range r.readyShards() {
		m := serve.SkillMetrics{
			Name:     sk.name,
			Requests: sk.requests.Load(),
			Errors:   sk.errs.Load(),
		}
		m.P50MS, m.P99MS = sk.lat.Quantiles()
		ss := sk.sessions.Stats()
		m.Sessions = int64(ss.Size)
		m.SessionHits = int64(ss.Hits)
		m.SessionMisses = int64(ss.Misses)
		m.SessionEvictions = int64(ss.Evictions)
		if sh := sk.shard.Load(); sh != nil {
			st := sh.batcher.Stats()
			m.Generation = sh.generation
			m.Shed = st.Shed
			m.QueueDepth = st.QueueDepth
			if st.Requests > 0 {
				m.QueueWaitMS = st.QueueWait.Seconds() * 1000 / float64(st.Requests)
			}
			m.Batches = st.Batches
			m.BatchSizes = st.BatchSizes
			m.Adaptive = st.Adaptive
			m.Escalated = st.Escalated
			if st.Adaptive > 0 {
				m.EscalationRate = float64(st.Escalated) / float64(st.Adaptive)
			}
		}
		out = append(out, m)
	}
	return out
}
