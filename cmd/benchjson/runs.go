package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// runName matches one run file of -runs: the output of
// 'go run ./bench --workload <workload> --seed <n> ...' saved as
// <workload>.<side>.seed<n>.json, or <workload>.<side>.seed<n>.traced.json
// for a --trace 1 run.
var runName = regexp.MustCompile(`^([^.]+)\.([^.]+)\.seed(\d+)(\.traced)?\.json$`)

// run is one benchmark run read from its file.
type run struct {
	kind, workload, side string // kind is "e2e" or "traced"
	seed                 int
	metrics              map[string]float64
}

// name is the run's record name, as BENCH_PR24/25.json spell it.
func (r run) name() string {
	return fmt.Sprintf("BenchmarkRepo/%s/%s/%s/seed=%d", r.kind, r.workload, r.side, r.seed)
}

// readRuns reads every run file in dir, ordered by kind, workload, side and
// seed. A file holds the run's final JSON line, alone or after the lines the
// benchmark prints before it; a run whose outputs failed the check is an
// error, since it does not count.
func readRuns(dir string) ([]run, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, e := range ents {
		m := runName.FindStringSubmatch(e.Name())
		if m == nil || e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var rep struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(lastJSONLine(raw), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if !rep.Correct {
			return nil, fmt.Errorf("%s: the run's outputs failed the benchmark's check", e.Name())
		}
		seed, _ := strconv.Atoi(m[3])
		r := run{kind: "e2e", workload: m[1], side: m[2], seed: seed, metrics: map[string]float64{
			"attempted": float64(rep.Attempted), "failed": float64(rep.Failed),
		}}
		if m[4] != "" {
			r.kind = "traced"
		}
		for name, v := range rep.Metrics {
			r.metrics[name] = v.Value
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no <workload>.<side>.seed<n>.json run files in %s", dir)
	}
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.side != b.side {
			return a.side < b.side
		}
		return a.seed < b.seed
	})
	return runs, nil
}

// lastJSONLine returns the last line of raw that starts with '{'.
func lastJSONLine(raw []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		if l := bytes.TrimSpace(lines[i]); len(l) > 0 && l[0] == '{' {
			return l
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -compare reads: every metric
// with its direction, and the bound of each end-to-end metric — the share of
// the parent's median by which the change's may be worse.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The two sides -compare sets against each other.
const baseSide, changeSide = "parent", "change"

// compare prints, per workload and metric that both sides report, each
// side's median and quartiles, the ratio change/parent of the medians (n/a
// where the parent's is 0), the pairs (runs of one seed on both sides) the
// change wins, whether the gap between the medians exceeds the parent's
// interquartile range, and, for an end-to-end metric, whether the change's
// median is worse than the parent's by more than the bound. Per workload it
// then prints each side's failed share, Σfailed/Σattempted over its runs; on
// end-to-end runs a rise is a breach. It returns how many bounds were
// breached.
func compare(out io.Writer, runs []run, bf benchmarkFile) int {
	type key struct{ kind, workload string }
	bySide := map[key]map[string][]run{}
	var keys []key
	for _, r := range runs {
		k := key{r.kind, r.workload}
		if bySide[k] == nil {
			bySide[k] = map[string][]run{}
			keys = append(keys, k)
		}
		bySide[k][r.side] = append(bySide[k][r.side], r)
	}
	fmt.Fprintf(out, "%-6s %-16s %-32s %-34s %-34s %7s %6s %5s  %s\n",
		"kind", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", ">IQR", "bound")
	breaches := 0
	for _, k := range keys {
		base, change := bySide[k][baseSide], bySide[k][changeSide]
		if len(base) == 0 || len(change) == 0 {
			continue
		}
		metrics := bf.PerLayer
		if k.kind == "e2e" {
			metrics = bf.EndToEnd
		}
		for _, m := range metrics {
			b, c := values(base, m.Name), values(change, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bs, cs := summarize(b), summarize(c)
			wins, pairs := 0, 0
			for _, rb := range base {
				for _, rc := range change {
					vb, okb := rb.metrics[m.Name]
					vc, okc := rc.metrics[m.Name]
					if rb.seed != rc.seed || !okb || !okc {
						continue
					}
					pairs++
					if better(m, vc, vb) {
						wins++
					}
				}
			}
			gap := "no"
			if math.Abs(cs.median-bs.median) > bs.q3-bs.q1 {
				gap = "yes"
			}
			bound := "-"
			if k.kind == "e2e" {
				bound = "ok"
				worse := cs.median - bs.median
				if m.Better == "higher" {
					worse = -worse
				}
				switch {
				case worse <= 0:
				case bs.median == 0:
					bound = "WORSE than the parent's 0"
					breaches++
				case worse/bs.median > m.Bound:
					bound = fmt.Sprintf("WORSE by %.1f%% > %.1f%%", 100*worse/bs.median, 100*m.Bound)
					breaches++
				}
			}
			fmt.Fprintf(out, "%-6s %-16s %-32s %-34s %-34s %7s %6s %5s  %s\n",
				k.kind, k.workload, m.Name+" ("+m.Unit+")", bs, cs, ratio(cs.median, bs.median), fmt.Sprintf("%d/%d", wins, pairs), gap, bound)
		}
		bShare, bText := failedShare(base)
		cShare, cText := failedShare(change)
		bound := "-"
		if k.kind == "e2e" {
			bound = "ok"
			if cShare > bShare {
				bound = "WORSE: more operations failed"
				breaches++
			}
		}
		fmt.Fprintf(out, "%-6s %-16s %-32s %-34s %-34s %7s %6s %5s  %s\n",
			k.kind, k.workload, "failed share", bText, cText, ratio(cShare, bShare), "-", "-", bound)
	}
	return breaches
}

// ratio formats c/b, or n/a where b is 0.
func ratio(c, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", c/b)
}

// failedShare returns Σfailed/Σattempted over runs (0 when nothing was
// attempted), and it printed with the two sums.
func failedShare(runs []run) (float64, string) {
	var failed, attempted float64
	for _, r := range runs {
		failed += r.metrics["failed"]
		attempted += r.metrics["attempted"]
	}
	share := 0.0
	if attempted > 0 {
		share = failed / attempted
	}
	return share, fmt.Sprintf("%.4g (%g/%g)", share, failed, attempted)
}

// values collects metric name over runs that report it.
func values(runs []run, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// better reports whether a is strictly better than b under m's direction.
func better(m benchMetric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

type summary struct{ median, q1, q3 float64 }

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

// summarize returns the median and the quartiles of xs, the quartiles taken
// as the benchmark's A/A check takes them: interpolated at rank k(n+1)/4.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(k int) float64 {
		if n == 1 {
			return s[0]
		}
		pos := min(max(float64(k)*float64(n+1)/4, 1), float64(n))
		j := min(int(pos), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{median: med, q1: q(1), q3: q(3)}
}
