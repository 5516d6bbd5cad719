package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/thingpedia"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	out     io.Writer // human-readable lines
	scratch string    // directory for snapshots and stores, removed at exit
	pool    *pool
	metrics map[string]metric
	check   *checker
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// seedFor derives the generator seed of one phase, so that phases of one run
// do not replay each other's list.
func (r *run) seedFor(phase int64) int64 { return r.seed*16 + phase }

// closedUnits is how many units a closed-loop list holds: far more than any
// box completes in the phase, so clients never run out.
func closedUnits(d time.Duration) int { return int(d.Seconds()*4000) + 64 }

// servePhases runs the open-loop and closed-loop phases against the gateway
// and sets the serving metrics. The timed open loop alone feeds the
// latency, limit and accuracy metrics.
func (r *run) servePhases(s *stack) {
	ctx := context.Background()
	nproc := runtime.GOMAXPROCS(0)
	sh := r.w.shares
	hs := newHTTPSender(s.gwSrv.URL, nproc)
	defer hs.close()

	// Untimed warm-up, then the timed open loop at the frozen rate.
	warm := generate(r.w, r.pool, r.seedFor(1), "ow", r.w.rate, phase(r.seconds, sh.openWarm).Seconds(), 0)
	r.check.account(r.out, "open-warmup", openLoop(ctx, warm, nproc, turnGap, hs.send, nil, ""))

	list := generate(r.w, r.pool, r.seedFor(2), "o", r.w.rate, phase(r.seconds, sh.open).Seconds(), 0)
	open := openLoop(ctx, list, nproc, turnGap, hs.send, nil, "")
	r.check.account(r.out, "open", open)
	lat := open.latenciesMS()
	fmt.Fprintf(r.out, "open loop: %.0f requests/s for %.1fs, %d latency samples (highest supported percentile p%g), generator late p99 %.3f ms, backlog max %d\n",
		r.w.rate, open.wall.Seconds(), len(lat), highestPercentile(len(lat)), percentile(open.lateMS(), 99), open.backlogMax)
	// The share within the limit is taken per segment of latencySegment
	// requests and the median segment reported: one stalled second of the
	// box moves one segment, not the metric.
	var within []float64
	for _, seg := range open.segments() {
		ok := 0
		for _, res := range seg {
			if res.err == nil && r.check.judge(res).wellFormed && res.latencyMS() <= r.w.sloMS {
				ok++
			}
		}
		within = append(within, 100*float64(ok)/float64(len(seg)))
	}
	// Accuracy counts whole passes over a skill's pool only (every request
	// of a skill whose pool the list did not get through once): the same
	// questions whatever the seed, so it moves with the outputs alone.
	matched, counted := 0, 0
	for i := range open.results {
		res := &open.results[i]
		if n := list.passes[res.req.skill]; n > 0 && res.req.pass >= n {
			continue
		}
		counted++
		if res.err == nil && r.check.judge(res).match {
			matched++
		}
	}
	fmt.Fprintf(r.out, "open loop: p95 %.3f ms, within %.0f ms by segment %.1f %%, %d of %d requests in whole passes match gold\n", percentile(lat, 95), r.w.sloMS, within, matched, counted)
	r.set("parse_p50_ms", percentile(lat, 50), "ms")
	r.set("slo_attainment_pct", median(within), "%")
	r.set("program_accuracy_pct", 100*float64(matched)/float64(max(counted, 1)), "%")

	// Closed loop: nproc clients back to back.
	cw := phase(r.seconds, sh.closedWarm)
	r.check.account(r.out, "closed-warmup", closedLoop(ctx, generate(r.w, r.pool, r.seedFor(3), "cw", 0, 0, closedUnits(cw)), nproc, cw, hs.send))
	cd := phase(r.seconds, sh.closed)
	closed := closedLoop(ctx, generate(r.w, r.pool, r.seedFor(4), "c", 0, 0, closedUnits(cd)), nproc, cd, hs.send)
	r.check.account(r.out, "closed", closed)
	r.set("capacity_rps", completionRate(closed), "1/s")
}

// prepare is a run's set-up: it builds the parsers and cold-starts the serving
// stack, and returns how long the workload's set-up took.
//
// A serving workload's set-up is the fleet's cold start, training each skill's
// parser from its library with the workload's recipe. train-offline's is the
// path from the library to a snapshot on disk; the same fleet and gateway are
// then cold-started on that snapshot (each build a LoadFile), untimed.
func (r *run) prepare() (*stack, float64, error) {
	if !r.w.offline {
		s, err := startStack(r.w, func(_ string, lib *thingpedia.Library) (*trained, error) {
			p, d, err := trainParser(lib, r.w.recipe)
			if err != nil {
				return nil, err
			}
			return &trained{lib: lib, parser: p, data: d}, nil
		})
		if err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(r.out, "setup: %.3fs cold start, %.3fs of it training\n", s.setupS, s.trainS)
		return s, s.setupS, nil
	}
	snapshot := filepath.Join(r.scratch, "offline.snapshot")
	steps := int(offlineStepsPerSecond * r.seconds)
	t0 := time.Now()
	built, err := offlineBuild(r.w, steps, snapshot)
	if err != nil {
		return nil, 0, err
	}
	setupS := time.Since(t0).Seconds()
	fmt.Fprintf(r.out, "setup: %.3fs from the library to a snapshot, %d steps of %d examples\n", setupS, steps, r.w.recipe.model.BatchSize)
	s, err := startStack(r.w, func(_ string, lib *thingpedia.Library) (*trained, error) {
		p, err := model.LoadFile(snapshot)
		if err != nil {
			return nil, err
		}
		return &trained{lib: lib, parser: p, data: built.data}, nil
	})
	return s, setupS, err
}

// runEndToEnd is the untraced run: set-up, then the serving phases.
func (r *run) runEndToEnd() error {
	s, setupS, err := r.prepare()
	if err != nil {
		return err
	}
	defer s.close()
	r.set("setup_s", setupS, "s")
	r.check = newChecker(s.schemas())
	r.servePhases(s)
	return nil
}

// execute runs one workload end to end (trace 0) or traced (trace 1) and
// returns the report for the last line of standard output.
func execute(w *workload, seed int64, seconds float64, traced bool, traceOut string, out io.Writer) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	p, err := loadPool(w)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, seconds: seconds, out: out, scratch: scratch, pool: p, metrics: map[string]metric{}}
	if traced {
		err = r.runTraced(traceOut)
	} else {
		err = r.runEndToEnd()
	}
	if err != nil {
		return nil, err
	}
	if r.check == nil {
		return nil, errors.New("run made no requests")
	}
	for _, p := range r.check.problems {
		fmt.Fprintln(out, "check:", p)
	}
	return &report{Correct: r.check.correct(), Attempted: r.check.sent, Failed: r.check.failed, Metrics: r.metrics}, nil
}

// outDir is where runs keep their temporary files and traces: inside the
// checkout, under a directory .gitignore names.
const outDir = ".bench_out"
