package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFile is the output of one synthetic 'go run ./bench' run of 100
// operations, none failed: the metric lines the benchmark prints, then its
// final JSON line.
func runFile(correct bool, metrics map[string]float64) string {
	return failedRunFile(correct, 0, metrics)
}

// failedRunFile is runFile with failed of the 100 operations failed.
func failedRunFile(correct bool, failed int, metrics map[string]float64) string {
	var b strings.Builder
	var js []string
	for name, v := range metrics {
		fmt.Fprintf(&b, "%-34s %14.4f x\n", name, v)
		js = append(js, fmt.Sprintf("%q:{\"value\":%g,\"unit\":\"x\"}", name, v))
	}
	fmt.Fprintf(&b, "{\"correct\":%t,\"attempted\":100,\"failed\":%d,\"metrics\":{%s}}\n", correct, failed, strings.Join(js, ","))
	return b.String()
}

var testBench = benchmarkFile{
	EndToEnd: []benchMetric{
		{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "parse_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	},
	PerLayer: []benchMetric{
		{Name: "model.parse_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.shed", Unit: "count", Better: "lower"},
	},
}

func TestRuns(t *testing.T) {
	for _, tc := range []struct {
		name     string
		files    map[string]string
		err      string   // readRuns fails with this, or
		records  []string // these records, in order, and
		rows     []string // compare prints these row fragments,
		breaches int      // with this many bound breaches
	}{{
		name: "a claimed gain: 3/3 wins beyond the parent's IQR, p50 inside its bound",
		files: map[string]string{
			"serve-compound.parent.seed1.json":        runFile(true, map[string]float64{"capacity_rps": 100, "parse_p50_ms": 1.0}),
			"serve-compound.parent.seed2.json":        runFile(true, map[string]float64{"capacity_rps": 110, "parse_p50_ms": 1.1}),
			"serve-compound.parent.seed3.json":        runFile(true, map[string]float64{"capacity_rps": 90, "parse_p50_ms": 0.9}),
			"serve-compound.change.seed1.json":        runFile(true, map[string]float64{"capacity_rps": 130, "parse_p50_ms": 1.2}),
			"serve-compound.change.seed2.json":        runFile(true, map[string]float64{"capacity_rps": 125, "parse_p50_ms": 1.1}),
			"serve-compound.change.seed3.json":        runFile(true, map[string]float64{"capacity_rps": 120, "parse_p50_ms": 1.0}),
			"serve-compound.parent.seed1.traced.json": runFile(true, map[string]float64{"model.parse_ms": 0.5}),
			"serve-compound.change.seed1.traced.json": runFile(true, map[string]float64{"model.parse_ms": 0.4}),
			"notes.txt": "not a run",
		},
		records: []string{
			"BenchmarkRepo/e2e/serve-compound/change/seed=1", "BenchmarkRepo/e2e/serve-compound/change/seed=2",
			"BenchmarkRepo/e2e/serve-compound/change/seed=3", "BenchmarkRepo/e2e/serve-compound/parent/seed=1",
			"BenchmarkRepo/e2e/serve-compound/parent/seed=2", "BenchmarkRepo/e2e/serve-compound/parent/seed=3",
			"BenchmarkRepo/traced/serve-compound/change/seed=1", "BenchmarkRepo/traced/serve-compound/parent/seed=1",
		},
		rows: []string{
			"e2e serve-compound capacity_rps (1/s) 100 [90, 110] 125 [120, 130] 1.250 3/3 yes ok",
			"e2e serve-compound parse_p50_ms (ms) 1 [0.9, 1.1] 1.1 [1, 1.2] 1.100 0/3 no ok",
			"e2e serve-compound failed share 0 (0/300) 0 (0/300) n/a - - ok",
			"traced serve-compound model.parse_ms (ms) 0.5 [0.5, 0.5] 0.4 [0.4, 0.4] 0.800 1/1 yes -",
			"traced serve-compound failed share 0 (0/100) 0 (0/100) n/a - - -",
		},
	}, {
		name: "more failed operations is a breach, fewer is not; traced runs report the share only",
		files: map[string]string{
			"serve-primitive.parent.seed1.json":       failedRunFile(true, 1, map[string]float64{"capacity_rps": 100}),
			"serve-primitive.parent.seed2.json":       runFile(true, map[string]float64{"capacity_rps": 100}),
			"serve-primitive.change.seed1.json":       failedRunFile(true, 2, map[string]float64{"capacity_rps": 100}),
			"serve-primitive.change.seed2.json":       runFile(true, map[string]float64{"capacity_rps": 100}),
			"serve-sessions.parent.seed1.json":        failedRunFile(true, 3, map[string]float64{"capacity_rps": 100}),
			"serve-sessions.change.seed1.json":        runFile(true, map[string]float64{"capacity_rps": 100}),
			"serve-sessions.parent.seed1.traced.json": runFile(true, map[string]float64{"serve.shed": 0}),
			"serve-sessions.change.seed1.traced.json": failedRunFile(true, 5, map[string]float64{"serve.shed": 0}),
		},
		records: []string{
			"BenchmarkRepo/e2e/serve-primitive/change/seed=1", "BenchmarkRepo/e2e/serve-primitive/change/seed=2",
			"BenchmarkRepo/e2e/serve-primitive/parent/seed=1", "BenchmarkRepo/e2e/serve-primitive/parent/seed=2",
			"BenchmarkRepo/e2e/serve-sessions/change/seed=1", "BenchmarkRepo/e2e/serve-sessions/parent/seed=1",
			"BenchmarkRepo/traced/serve-sessions/change/seed=1", "BenchmarkRepo/traced/serve-sessions/parent/seed=1",
		},
		rows: []string{
			"e2e serve-primitive failed share 0.005 (1/200) 0.01 (2/200) 2.000 - - WORSE: more operations failed",
			"e2e serve-sessions failed share 0.03 (3/100) 0 (0/100) 0.000 - - ok",
			"traced serve-sessions serve.shed (count) 0 [0, 0] 0 [0, 0] n/a 0/1 no -",
			"traced serve-sessions failed share 0 (0/100) 0.05 (5/100) n/a - - -",
		},
		breaches: 1,
	}, {
		name: "a zero parent median: no ratio, and any worsening breaches the bound",
		files: map[string]string{
			"serve-compound.parent.seed1.json": runFile(true, map[string]float64{"capacity_rps": 0, "parse_p50_ms": 0}),
			"serve-compound.change.seed1.json": runFile(true, map[string]float64{"capacity_rps": 5, "parse_p50_ms": 0.1}),
		},
		records: []string{"BenchmarkRepo/e2e/serve-compound/change/seed=1", "BenchmarkRepo/e2e/serve-compound/parent/seed=1"},
		rows: []string{
			"capacity_rps (1/s) 0 [0, 0] 5 [5, 5] n/a 1/1 yes ok",
			"parse_p50_ms (ms) 0 [0, 0] 0.1 [0.1, 0.1] n/a 0/1 yes WORSE than the parent's 0",
		},
		breaches: 1,
	}, {
		name: "a regression past the bound, ties counting for neither side",
		files: map[string]string{
			"train-offline.parent.seed1.json": runFile(true, map[string]float64{"capacity_rps": 100}),
			"train-offline.parent.seed2.json": runFile(true, map[string]float64{"capacity_rps": 100}),
			"train-offline.change.seed1.json": runFile(true, map[string]float64{"capacity_rps": 100}),
			"train-offline.change.seed2.json": runFile(true, map[string]float64{"capacity_rps": 50}),
			"train-offline.change.seed3.json": runFile(true, map[string]float64{"capacity_rps": 50}),
		},
		records: []string{
			"BenchmarkRepo/e2e/train-offline/change/seed=1", "BenchmarkRepo/e2e/train-offline/change/seed=2",
			"BenchmarkRepo/e2e/train-offline/change/seed=3", "BenchmarkRepo/e2e/train-offline/parent/seed=1",
			"BenchmarkRepo/e2e/train-offline/parent/seed=2",
		},
		rows:     []string{"capacity_rps (1/s) 100 [100, 100] 50 [50, 100] 0.500 0/2 yes WORSE by 50.0% > 25.0%"},
		breaches: 1,
	}, {
		name:  "a run whose outputs failed the check does not count",
		files: map[string]string{"serve-primitive.change.seed1.json": runFile(false, map[string]float64{"capacity_rps": 1})},
		err:   "failed the benchmark's check",
	}, {
		name:  "no run files",
		files: map[string]string{"README": "x"},
		err:   "no <workload>.<side>.seed<n>.json run files",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			runs, err := readRuns(dir)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("readRuns error = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, r := range runs {
				names = append(names, r.name())
				if r.metrics["attempted"] != 100 {
					t.Errorf("%s: attempted = %v", r.name(), r.metrics["attempted"])
				}
			}
			if strings.Join(names, "\n") != strings.Join(tc.records, "\n") {
				t.Fatalf("records:\n%s\nwant:\n%s", strings.Join(names, "\n"), strings.Join(tc.records, "\n"))
			}
			var out bytes.Buffer
			if n := compare(&out, runs, testBench); n != tc.breaches {
				t.Errorf("compare found %d breaches, want %d\n%s", n, tc.breaches, out.String())
			}
			// Rows are matched with each run of spaces taken as one.
			var lines []string
			for _, l := range strings.Split(out.String(), "\n") {
				lines = append(lines, strings.Join(strings.Fields(l), " "))
			}
			for _, row := range tc.rows {
				if !strings.Contains(strings.Join(lines, "\n"), row) {
					t.Errorf("compare output lacks %q:\n%s", row, out.String())
				}
			}
		})
	}
}
