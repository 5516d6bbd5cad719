// Command benchjson converts `go test -bench` output into a machine-readable
// JSON record, and derives per-example speedups between benchmark legs whose
// names differ only in a recognized axis (B=1 vs B=16, sequential vs
// batched). CI uses it to publish the minibatching trajectory
// (BENCH_PR4.json); it reads stdin or -in and writes stdout or -out.
//
//	go test -bench 'TrainStepBatched|BatchedDecode' -benchtime 20x . | benchjson -out BENCH_PR4.json
//
// With -runs it reads the repository benchmark's runs instead — one file per
// 'go run ./bench' run, named <workload>.<side>.seed<n>.json
// (<workload>.<side>.seed<n>.traced.json for --trace 1) — and writes one
// BenchmarkRepo/<e2e|traced>/<workload>/<side>/seed=<n> record per run.
// -compare then prints the parent and change sides side by side against the
// metrics and bounds of BENCHMARK.json (read from the working directory, so
// run it from the repository root), with each side's failed share, and exits
// 1 when an end-to-end metric is worse than its bound or a larger share of
// operations failed:
//
//	benchjson -runs runs/ -note "..." -out BENCH_PR27.json
//	benchjson -runs runs/ -compare
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line: name, the GOMAXPROCS it ran at (the name's
// -N suffix; 0 when there is none, as at -cpu 1), iteration count, and every
// reported metric (ns/op, B/op, allocs/op plus custom ones like ns/example).
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Speedup relates two legs of one benchmark family on a shared metric.
type Speedup struct {
	Benchmark string  `json:"benchmark"`
	Procs     int     `json:"procs,omitempty"`
	Metric    string  `json:"metric"`
	Base      string  `json:"base"`
	Against   string  `json:"against"`
	Speedup   float64 `json:"speedup"`
}

// File is the emitted document.
type File struct {
	Note       string    `json:"note,omitempty"`
	Benchmarks []Result  `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse extracts benchmark results from go test -bench output.
func parse(lines []string) []Result {
	var out []Result
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		procs, _ := strconv.Atoi(m[2])
		iters, _ := strconv.Atoi(m[3])
		r := Result{Name: m[1], Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		if len(r.Metrics) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// legPairs are the sub-benchmark leg names we derive speedups across: the
// slow (base) leg first, the fast leg second.
var legPairs = [][2]string{
	{"/B=1", "/B=16"},
	{"/sequential", "/batched"},
}

// speedups pairs legs of the same benchmark family at the same GOMAXPROCS
// and reports base/fast ratios on the most specific shared per-item metric
// (ns/example or ns/sentence when present, ns/op otherwise).
func speedups(results []Result) []Speedup {
	type key struct {
		name  string
		procs int
	}
	byName := map[key]Result{}
	for _, r := range results {
		byName[key{r.Name, r.Procs}] = r
	}
	metricOf := func(r Result) string {
		for _, m := range []string{"ns/example", "ns/sentence"} {
			if _, ok := r.Metrics[m]; ok {
				return m
			}
		}
		return "ns/op"
	}
	var out []Speedup
	for _, r := range results {
		for _, lp := range legPairs {
			if !strings.HasSuffix(r.Name, lp[0]) {
				continue
			}
			fast, ok := byName[key{strings.TrimSuffix(r.Name, lp[0]) + lp[1], r.Procs}]
			if !ok {
				continue
			}
			m := metricOf(r)
			base, ok1 := r.Metrics[m]
			against, ok2 := fast.Metrics[m]
			if ok1 && ok2 && against > 0 {
				out = append(out, Speedup{
					Benchmark: strings.TrimPrefix(r.Name, "Benchmark"),
					Procs:     r.Procs,
					Metric:    m,
					Base:      r.Name,
					Against:   fast.Name,
					Speedup:   base / against,
				})
			}
		}
	}
	return out
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	note := flag.String("note", "", "free-form note recorded in the document")
	runsDir := flag.String("runs", "", "directory of 'go run ./bench' run files, <workload>.<side>.seed<n>[.traced].json, to record instead of -in")
	cmp := flag.Bool("compare", false, "with -runs: print the parent and change sides per workload and metric against ./BENCHMARK.json instead of the JSON (still written to -out if set); exit 1 on a bound breach or a rise in the failed share")
	flag.Parse()

	if *runsDir != "" {
		os.Exit(recordRuns(*runsDir, *note, *out, *cmp))
	}
	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	var lines []string
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	results := parse(lines)
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}
	if err := write(File{Note: *note, Benchmarks: results, Speedups: speedups(results)}, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// recordRuns is the -runs mode; it returns the exit status. -compare reads
// the metrics and bounds from BENCHMARK.json in the working directory, the
// repository root, as the benchmark's own A/A check does.
func recordRuns(dir, note, out string, cmp bool) int {
	runs, err := readRuns(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	doc := File{Note: note}
	for _, r := range runs {
		doc.Benchmarks = append(doc.Benchmarks, Result{Name: r.name(), Iterations: 1, Metrics: r.metrics})
	}
	if !cmp || out != "" {
		if err := write(doc, out); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
	}
	if !cmp {
		return 0
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: BENCHMARK.json: %v\n", err)
		return 1
	}
	if n := compare(os.Stdout, runs, bf); n > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d end-to-end metric(s) worse than their bound\n", n)
		return 1
	}
	return 0
}

// write encodes doc, indented, to the file out, or to stdout when out is "".
func write(doc File, out string) error {
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
