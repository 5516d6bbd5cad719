package synthesis

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/nltemplate"
	"repro/internal/params"
	"repro/internal/thingtalk"
)

// slotIDShift partitions the slot-ID space per task: task t mints IDs
// t<<slotIDShift+1, t<<slotIDShift+2, ... so concurrently sampled
// derivations never collide and the numbering is independent of scheduling.
// SlotIDs are ints, so the namespace width depends on the platform: 2^32
// IDs per task on 64-bit hosts, 2^20 on 32-bit hosts (ample for any scale a
// 32-bit address space can hold; the shift must stay below the int width or
// every task's namespace would collapse onto the same range).
const slotIDShift = 8 + 12*(bits.UintSize/32)

// sampler holds the cross-wave state: derivation pools and dedup sets per
// category. Within a depth wave each category is owned by exactly one task;
// pools are appended only during the sequential merge between waves, so
// tasks may read them freely while a wave is in flight.
type sampler struct {
	g   *nltemplate.Grammar
	cfg Config

	pools map[string][]*nltemplate.Derivation
	seen  map[string]map[string]bool
	// rulesByCat lists the eligible rules per category in deterministic
	// order.
	rulesByCat map[string][]*nltemplate.Rule
	cats       []string
}

func newSampler(g *nltemplate.Grammar, cfg Config) *sampler {
	if cfg.TargetPerRule <= 0 {
		cfg.TargetPerRule = DefaultConfig.TargetPerRule
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = DefaultConfig.MaxDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &sampler{
		g:          g,
		cfg:        cfg,
		pools:      map[string][]*nltemplate.Derivation{},
		seen:       map[string]map[string]bool{},
		rulesByCat: map[string][]*nltemplate.Rule{},
	}
	for _, cat := range g.Categories() {
		var rules []*nltemplate.Rule
		for _, r := range g.Rules(cat) {
			if cfg.Flag == "" || r.HasFlag(cfg.Flag) {
				rules = append(rules, r)
			}
		}
		if len(rules) > 0 {
			s.rulesByCat[cat] = rules
			s.cats = append(s.cats, cat)
			// Pre-create the dedup sets so tasks never write the outer
			// map concurrently.
			s.seen[cat] = map[string]bool{}
		}
	}
	return s
}

// run executes the depth waves, calling emit (which may be nil) for every
// complete command in deterministic order.
func (s *sampler) run(emit func(Example)) {
	for depth := 1; depth <= s.cfg.MaxDepth; depth++ {
		results := s.runWave(depth)
		// Deterministic merge: category registration order, generation
		// order within a category.
		for _, t := range results {
			s.pools[t.cat] = append(s.pools[t.cat], t.derivs...)
			if emit != nil {
				for i := range t.commands {
					emit(t.commands[i])
				}
			}
		}
	}
}

// runWave samples every category at one depth. Tasks only read pools (frozen
// at depths < depth) and write task-local buffers plus their own category's
// dedup set, so they are data-race free by ownership.
func (s *sampler) runWave(depth int) []*task {
	results := make([]*task, len(s.cats))
	if s.cfg.Workers == 1 {
		for i := range s.cats {
			results[i] = s.runTask(depth, i)
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = s.runTask(depth, i)
			}
		}()
	}
	for i := range s.cats {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// task is one (category, depth) unit of work with its own RNG stream and
// slot-ID namespace.
type task struct {
	s     *sampler
	cat   string
	depth int
	rng   *rand.Rand
	seen  map[string]bool // the sampler's dedup set for cat, task-owned this wave

	slotBase  int
	slotCount int

	derivs   []*nltemplate.Derivation
	commands []Example
}

// runTask samples all rules of one category at one depth.
func (s *sampler) runTask(depth, catIdx int) *task {
	id := (depth-1)*len(s.cats) + catIdx
	t := &task{
		s:        s,
		cat:      s.cats[catIdx],
		depth:    depth,
		rng:      rand.New(rand.NewSource(params.DeriveSeed(s.cfg.Seed, "synthesis", id))),
		seen:     s.seen[s.cats[catIdx]],
		slotBase: id << slotIDShift,
	}
	for _, rule := range s.rulesByCat[t.cat] {
		t.sampleRule(rule)
	}
	return t
}

// target returns the per-rule sample budget at a depth: exponentially
// decreasing, as in the paper.
func (s *sampler) target(depth int) int {
	t := s.cfg.TargetPerRule >> uint(depth-2)
	if t < 1 {
		t = 1
	}
	return t
}

// sampleRule draws derivations for one rule whose result lands at the task's
// depth (i.e. whose deepest child has depth-1).
func (t *task) sampleRule(rule *nltemplate.Rule) {
	nts := rule.NonTerminals()
	// Split non-terminals into generators (constants, always depth 1) and
	// pool references.
	poolCats := make([]string, 0, len(nts))
	for _, i := range nts {
		ntCat := rule.RHS[i].NonTerm
		if _, isConst := nltemplate.IsConstCategory(ntCat); !isConst {
			poolCats = append(poolCats, ntCat)
		}
	}
	if len(poolCats) == 0 {
		// Leaf rule: exactly one shape; derives at depth 1 only.
		if t.depth != 1 {
			return
		}
		t.derive(rule, 1)
		return
	}
	if t.depth == 1 {
		return // rules with children cannot land at depth 1
	}
	// All referenced pools must be non-empty.
	for _, pc := range poolCats {
		if len(t.s.pools[pc]) == 0 {
			return
		}
	}
	t.derive(rule, t.s.target(t.depth))
}

// derive makes up to target*overdraw draws of children for the rule, keeping
// successful, novel derivations.
func (t *task) derive(rule *nltemplate.Rule, target int) {
	nts := rule.NonTerminals()
	attempts := target * 4
	kept := 0
	for a := 0; a < attempts && kept < target; a++ {
		children := make([]*nltemplate.Derivation, 0, len(nts))
		maxChildDepth := 0
		ok := true
		for _, i := range nts {
			ntCat := rule.RHS[i].NonTerm
			if ct, isConst := nltemplate.IsConstCategory(ntCat); isConst {
				children = append(children, t.freshSlot(ct))
				continue
			}
			pool := t.s.pools[ntCat]
			// Only children strictly shallower than the target depth.
			d := t.pickShallower(pool)
			if d == nil {
				ok = false
				break
			}
			children = append(children, d)
			if d.Depth > maxChildDepth {
				maxChildDepth = d.Depth
			}
		}
		if !ok {
			break
		}
		// Novel depth requires the deepest child at depth-1 (otherwise the
		// same derivation was already reachable at a lower depth).
		if len(children) > 0 && containsPoolChild(rule, nts) && maxChildDepth != t.depth-1 {
			continue
		}
		d := nltemplate.Derive(rule, children)
		if d == nil {
			continue
		}
		if t.keep(rule, d) {
			kept++
		}
	}
}

func containsPoolChild(rule *nltemplate.Rule, nts []int) bool {
	for _, i := range nts {
		if _, isConst := nltemplate.IsConstCategory(rule.RHS[i].NonTerm); !isConst {
			return true
		}
	}
	return false
}

// pickShallower draws a uniform random pool element of depth < the task's
// depth.
func (t *task) pickShallower(pool []*nltemplate.Derivation) *nltemplate.Derivation {
	// Pools are appended in depth order, so all eligible elements form a
	// prefix; during wave d the pools hold only depths < d, making the scan
	// a cheap guard.
	hi := len(pool)
	for hi > 0 && pool[hi-1].Depth >= t.depth {
		hi--
	}
	if hi == 0 {
		return nil
	}
	return pool[t.rng.Intn(hi)]
}

// freshSlot mints a new typed constant slot derivation from the task's
// private ID namespace.
func (t *task) freshSlot(ct thingtalk.Type) *nltemplate.Derivation {
	t.slotCount++
	v := thingtalk.SlotValue(ct, t.slotBase+t.slotCount)
	return &nltemplate.Derivation{
		Words: v.Tokens(),
		Value: v,
		Depth: 1,
	}
}

// keep deduplicates and stores a derivation; command derivations are also
// canonicalized and collected as output examples.
func (t *task) keep(rule *nltemplate.Rule, d *nltemplate.Derivation) bool {
	key := d.Sentence() + " ||| " + valueKey(d.Value)
	if t.seen[key] {
		return false
	}
	t.seen[key] = true
	t.derivs = append(t.derivs, d)
	if t.cat == nltemplate.CatCommand {
		prog, ok := d.Value.(*thingtalk.Program)
		if !ok {
			return false
		}
		if t.s.cfg.Schemas != nil {
			prog = thingtalk.Canonicalize(prog, t.s.cfg.Schemas)
		}
		t.commands = append(t.commands, Example{
			Words:   d.Words,
			Program: prog,
			Depth:   d.Depth,
			Rule:    rule.Name,
		})
	}
	return true
}
