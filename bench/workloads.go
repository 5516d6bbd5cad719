package main

import (
	"time"

	"repro/internal/genie"
	"repro/internal/model"
)

// This file holds every constant of the benchmark: the four workloads, their
// training recipes, arrival rates, latency limits and phase budgets. The
// contract fixes BENCHMARK.json's keys, so the rates and limits the issue
// wanted there live here; README.md records how each was frozen.

// trainSeed seeds every parser the benchmark trains. The parser under test is
// a function of the commit alone; --seed only drives the traffic generator.
const trainSeed = 1

// turnGap is how long a simulated user takes to send a follow-up after the
// previous turn's reply arrived.
const turnGap = 200 * time.Millisecond

// sessionCapacity bounds each skill's session store so that finished
// sessions are evicted continuously during the serve-sessions phases.
const sessionCapacity = 256

// offlineStepsPerSecond converts --seconds into the MaxSteps of train-offline's
// set-up, so that its Data.Train call is equal work on both sides of a
// comparison and still scales with the requested run length (220 steps at the
// contract's 20 s).
const offlineStepsPerSecond = 11

// recipe is one parser's training recipe: the trainParserLib steps of
// cmd/genie (BuildData, Data.Train, SetGrammar) with a fixed step budget.
type recipe struct {
	data     genie.Scale // synthesis/paraphrase/augmentation settings; its Model is ignored
	model    model.Config
	dialogue bool
}

// shares splits --seconds among the timed phases of a run (fractions sum to
// about 1). Every workload reports every end-to-end metric, because the
// contract demands it, so every workload has every phase; the phases a
// workload exists for get the large shares.
type shares struct {
	openWarm, open, closedWarm, closed float64
}

type workload struct {
	name string
	why  string
	// libDir (under skills/) is the fleet's library directory; skills and mix
	// give the traffic split across its libraries.
	libDir string
	skills []string
	mix    []float64
	recipe recipe
	// class selects the traffic pool: "primitive", "compound", "mixed" (both)
	// or "session".
	class string
	// rate is the open-loop arrival rate in requests per second (a session
	// counts its three turns, so sessions start at a third of it). Frozen at
	// 40% of the capacity_rps measured on the 2-core reference box, rounded
	// to 10 rps.
	rate float64
	// sloMS is the latency limit of slo_attainment_pct.
	sloMS float64
	// offline marks train-offline: set-up is the path from the library to a
	// snapshot on disk, and the fleet then serves that snapshot.
	offline bool
	shares  shares
}

// assistantModel is genie.Unit's model with batched, length-bucketed training;
// the learning rate is doubled because the step budget is tens of seconds, not
// epochs.
func assistantModel(maxSteps int) model.Config {
	m := genie.Unit.Model
	m.LR = 1e-2
	m.BatchSize = 16
	m.BucketByLength = true
	m.LMSteps = 100
	m.MaxSteps = maxSteps
	return m
}

// homeModel trains the two single-skill home parsers per example (B=1), the
// path contextual training takes and the assistant recipe never touches.
func homeModel(maxSteps int) model.Config {
	m := genie.Unit.Model
	m.LMSteps = 100
	m.MaxSteps = maxSteps
	return m
}

var servingShares = shares{openWarm: 0.025, open: 0.5, closedWarm: 0.025, closed: 0.45}

var workloads = []*workload{
	{
		name:   "serve-primitive",
		why:    "short primitive commands: the gateway hop, HTTP/JSON, admission and the batch window dominate, decode is a small share",
		libDir: "assistant", skills: []string{"assistant"}, mix: []float64{1},
		recipe: recipe{data: genie.Unit, model: assistantModel(220)},
		class:  "primitive", rate: 180, sloMS: 20,
		shares: servingShares,
	},
	{
		name:   "serve-compound",
		why:    "long compound commands with filters and quoted strings on the same server: decode dominates, so the difference to serve-primitive isolates model/nn/grammar",
		libDir: "assistant", skills: []string{"assistant"}, mix: []float64{1},
		recipe: recipe{data: genie.Unit, model: assistantModel(220)},
		class:  "compound", rate: 130, sloMS: 40,
		shares: servingShares,
	},
	{
		name:   "serve-sessions",
		why:    "3-turn sessions on two contextual parsers: context encoder, session-store writes beside reads, sticky gateway routing, B=1 contextual training in set-up",
		libDir: "home", skills: []string{"io.home.lights", "io.home.coffee"}, mix: []float64{0.8, 0.2},
		recipe: recipe{data: genie.Unit, model: homeModel(1800), dialogue: true},
		class:  "session", rate: 170, sloMS: 20,
		shares: servingShares,
	},
	{
		name:   "train-offline",
		why:    "the skill developer's path: batched training to a snapshot, big-batch offline evaluation and the data pipeline; serving-tier changes must leave it flat",
		libDir: "assistant", skills: []string{"assistant"}, mix: []float64{1},
		recipe: recipe{data: genie.Small, model: assistantModel(0)},
		class:  "mixed", rate: 150, sloMS: 40,
		offline: true,
		// Set-up trains for offlineStepsPerSecond x --seconds steps, about half
		// of --seconds on the reference box, so the timed phases are shorter.
		shares: shares{openWarm: 0.025, open: 0.3, closedWarm: 0.0125, closed: 0.25},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// phase converts a share of the run into a duration.
func phase(seconds float64, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}
