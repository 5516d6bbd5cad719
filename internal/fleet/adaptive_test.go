package fleet

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// TestFleetAdaptiveEscalationMetrics runs a two-skill fleet with adaptive
// decoding on: alpha's parser carries a calibration threshold above every
// score (all requests escalate to the beam), beta's one below (none do).
// The per-skill escalation counters surfaced on /metrics must reflect
// exactly that split.
func TestFleetAdaptiveEscalationMetrics(t *testing.T) {
	dir := t.TempDir()
	writeLib(t, dir, "alpha", libV1("test.alpha"))
	writeLib(t, dir, "beta", libV1("test.beta"))

	// The toy parsers are shared across the test binary: restore their
	// (empty) calibration on the way out.
	defer toyParser("alpha").SetCalibration(model.Calibration{})
	defer toyParser("beta").SetCalibration(model.Calibration{})

	train := func(name string, lib *thingpedia.Library) (*model.Parser, error) {
		p := toyParser(name)
		thr := math.Inf(1) // alpha: every greedy score is below +Inf
		if name == "beta" {
			thr = math.Inf(-1) // beta: no score is below -Inf
		}
		p.SetCalibration(model.Calibration{Fitted: true, Threshold: thr})
		return p, nil
	}
	r, err := New(Config{
		LibDir: dir,
		Serve: serve.Options{
			MaxBatch: 4, Workers: 2, MaxQueue: -1, Beam: 3, Adaptive: true,
		},
		Train: train,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitReady(t, r)

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for _, skill := range []string{"alpha", "beta"} {
			wg.Add(1)
			go func(skill string) {
				defer wg.Done()
				if _, _, err := parseSkill(r, context.Background(), skill, []string{"tweet", "bravo", "now"}); err != nil {
					t.Errorf("Parse %s: %v", skill, err)
				}
			}(skill)
		}
	}
	wg.Wait()

	byName := map[string]serve.SkillMetrics{}
	for _, m := range r.Metrics() {
		byName[m.Name] = m
	}
	alpha, beta := byName["alpha"], byName["beta"]
	if alpha.Adaptive != n || alpha.Escalated != n || alpha.EscalationRate != 1 {
		t.Errorf("alpha should escalate all %d adaptive requests: %+v", n, alpha)
	}
	if beta.Adaptive != n || beta.Escalated != 0 || beta.EscalationRate != 0 {
		t.Errorf("beta should escalate none of %d adaptive requests: %+v", n, beta)
	}
}
