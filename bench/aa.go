package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOnce runs one workload in a process of its own, as the driver does, and
// returns the report of its last output line.
func runOnce(exe, workload string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	return &rep, nil
}

// selfCheck is the A/A check: the whole suite k times twice over on the
// unchanged tree, the two sets interleaved (A B A B ...), every run with a seed
// of its own and BENCHMARK.json's run_seconds. Per workload and end-to-end metric it prints both medians, how
// much worse B's is than A's, the run-to-run spread over all 2k runs (the
// distance between the quartiles as a share of the median, as the driver takes
// it) and the bound from BENCHMARK.json. Any breach makes it fail.
func selfCheck(k int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := bf.RunSeconds
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	start := time.Now()
	for i := 0; i < k; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed := int64(2*i + set + 1)
				rep, err := runOnce(exe, w.name, seed, seconds)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: outputs incorrect", w.name, seed)
				}
				for name, m := range rep.Metrics {
					sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: round %d/%d set %c %s seed %d done (%.0fs elapsed)\n", i+1, k, 'A'+set, w.name, seed, time.Since(start).Seconds())
			}
		}
	}
	fmt.Fprintf(out, "A/A self-check: k=%d, %g s runs, %d runs per workload, %.0f s in all\n", k, seconds, 2*k, time.Since(start).Seconds())
	fmt.Fprintf(out, "%-16s %-22s %-6s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "unit", "median A", "median B", "B worse", "spread", "bound", "verdict")
	breaches := 0
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][key{w.name, m.Name}], sets[1][key{w.name, m.Name}]
			if len(a) != k || len(b) != k {
				return fmt.Errorf("%s did not report %s on every run", w.name, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := quartileSpread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			// The contract exempts set-up time from the spread rule only.
			if worse > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-16s %-22s %-6s %14.4f %14.4f %8.2f%% %8.2f%% %6.1f%%  %s\n", w.name, m.Name, m.Unit, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "\nevery run, in the order run (A B A B ...):\n")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][key{w.name, m.Name}], sets[1][key{w.name, m.Name}]
			fmt.Fprintf(out, "%-16s %-22s", w.name, m.Name)
			for i := range a {
				fmt.Fprintf(out, " %.5g %.5g", a[i], b[i])
			}
			fmt.Fprintln(out)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", breaches)
	}
	return nil
}
