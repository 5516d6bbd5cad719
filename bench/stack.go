package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/serve"
	"repro/internal/thingpedia"
	"repro/internal/thingtalk"
)

// trainParser is cmd/genie's trainParserLib recipe: synthesize and paraphrase
// the library's data, train with the recipe's fixed step budget, and stamp the
// grammar so every decode is masked to well-formed programs. Every parser of
// the benchmark is trained this way by the commit under test, never loaded
// from a committed snapshot.
func trainParser(lib *thingpedia.Library, rc recipe) (*model.Parser, *genie.Data, error) {
	d := genie.BuildData(lib, nltemplate.DefaultOptions, rc.data, trainSeed)
	tp := d.Train(genie.TrainOptions{
		Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets,
		Model: rc.model, Seed: trainSeed, Dialogue: rc.dialogue,
	})
	if err := tp.Parser.SetGrammar(grammar.NewSpec(lib.Functions())); err != nil {
		return nil, nil, fmt.Errorf("grammar mask: %w", err)
	}
	return tp.Parser, d, nil
}

// trained is what the benchmark keeps of one skill's parser build.
type trained struct {
	lib    *thingpedia.Library
	parser *model.Parser
	data   *genie.Data // what the parser was trained on
}

// stack is the system under test in one process: a fleet registry behind its
// HTTP server behind one gateway, each on a loopback listener.
type stack struct {
	reg      *fleet.Registry
	fleetSrv *httptest.Server
	gw       *gateway.Gateway
	gwSrv    *httptest.Server

	// skills is what each skill's build produced; complete and read-only once
	// startStack returns.
	skills map[string]*trained

	// setupS is the cold start: fleet.New until the gateway's probe sees
	// every skill ready. trainS is the part of it during which some skill's
	// TrainFunc was running.
	setupS float64
	trainS float64
}

// startStack cold-starts the serving stack of a workload with the system's
// default serve.Options (MaxBatch 8, MaxWait 2 ms) and gateway.Options.
// build produces each skill's parser.
func startStack(w *workload, build func(name string, lib *thingpedia.Library) (*trained, error)) (*stack, error) {
	s := &stack{}
	// The fleet builds its skills on goroutines of its own.
	var mu sync.Mutex
	built := map[string]*trained{}
	var trainFrom, trainTo time.Time
	start := time.Now()
	reg, err := fleet.New(fleet.Config{
		LibDir:          filepath.Join(benchDir, "skills", w.libDir),
		SessionCapacity: sessionCapacity,
		// One training run per skill at once: with two skills both cores
		// train, and set-up does not depend on which of them the box slows.
		TrainWorkers: len(w.skills),
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			t0 := time.Now()
			tr, err := build(name, lib)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			built[name] = tr
			// The builds run side by side from the start, so the span from
			// the first to begin to the last to end covers them.
			if trainFrom.IsZero() || t0.Before(trainFrom) {
				trainFrom = t0
			}
			trainTo = time.Now()
			return tr.parser, nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.reg = reg
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := reg.WaitReady(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("fleet not ready: %w", err)
	}
	mu.Lock()
	s.skills, s.trainS = built, trainTo.Sub(trainFrom).Seconds()
	mu.Unlock()
	s.fleetSrv = httptest.NewServer(fleet.NewServer(reg).Handler())
	// gateway.New probes every backend once before it returns.
	s.gw = gateway.New([]string{s.fleetSrv.URL}, gateway.Options{})
	s.gwSrv = httptest.NewServer(s.gw.Handler())
	ready := map[string]bool{}
	for _, info := range s.gw.SkillsSnapshot() {
		ready[info.Name] = info.Status == "ready"
	}
	for _, name := range w.skills {
		if !ready[name] {
			detail := ""
			for _, info := range reg.Skills() {
				if info.Name == name {
					detail = info.Status + " " + info.Error
				}
			}
			s.close()
			return nil, fmt.Errorf("skill %s is not ready behind the gateway (%s)", name, detail)
		}
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

func (s *stack) close() {
	if s.gwSrv != nil {
		s.gwSrv.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.fleetSrv != nil {
		s.fleetSrv.Close()
	}
	if s.reg != nil {
		s.reg.Close()
	}
}

// schemas maps each skill to the schemas its replies are checked against.
func (s *stack) schemas() map[string]thingtalk.SchemaSource {
	out := map[string]thingtalk.SchemaSource{}
	for name, tr := range s.skills {
		out[name] = tr.lib
	}
	return out
}

// fleetMetrics returns the fleet's per-skill serving metrics by skill name.
func (s *stack) fleetMetrics() map[string]serve.SkillMetrics {
	out := map[string]serve.SkillMetrics{}
	for _, m := range s.reg.Metrics() {
		out[m.Name] = m
	}
	return out
}
