// Command bench is the repository's benchmark: one workload per process, the
// load generator, gateway and fleet together over loopback listeners.
//
//	go run ./bench --workload serve-primitive --seed 1 --seconds 20 --trace 0
//
// prints every end-to-end metric of the workload by name and unit, checks the
// outputs, and ends with one JSON line; --trace 1 does the separate traced
// run that yields the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload to run: serve-primitive, serve-compound, serve-sessions or train-offline")
	seed := flag.Int64("seed", 1, "seed of the traffic generator")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end run; 1: traced run reporting the per-layer metrics")
	traceOut := flag.String("trace-out", "", "where the traced run writes its spans as JSONL (default .bench_out/trace-<workload>.jsonl)")
	aa := flag.Int("aa", 0, "A/A self-check: run the whole suite this many times twice over and compare the two sets")
	gen := flag.Bool("gen-traffic", false, "redraw the committed traffic pools under traffic/")
	flag.Parse()

	switch {
	case *gen:
		if err := genTraffic(); err != nil {
			fatal(err)
		}
		return
	case *aa > 0:
		if err := selfCheck(*aa, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(outDir, "trace-"+w.name+".jsonl")
	}
	rep, err := execute(w, *seed, *seconds, *trace == 1, *traceOut, os.Stdout)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
