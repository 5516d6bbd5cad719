package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range f.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// quick is a workload shrunk to a test's budget: the same stack, pools and
// phases, with a parser trained for a moment.
func quick(name string, steps int) *workload {
	w := *workloadByName(name)
	w.recipe.model.MaxSteps = steps
	w.recipe.model.LMSteps = 10
	return &w
}

func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s is declared in BENCHMARK.json but was not reported", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s reported in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s was reported but is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	endToEnd, perLayer, names := benchmarkNames(t)
	if len(endToEnd) != 5 || len(perLayer) != 64 {
		t.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, want 5 and 64", len(endToEnd), len(perLayer))
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, names[i], w.name)
		}
	}
}

// TestTracedRun drives a whole traced run of a shrunken serve-sessions (the
// workload that uses every layer) and checks what the trace must guarantee.
func TestTracedRun(t *testing.T) {
	_, perLayer, _ := benchmarkNames(t)
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	rep, err := execute(quick("serve-sessions", 150), 1, 2, true, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("traced run: correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	sameNames(t, "traced run", rep.Metrics, perLayer)

	// No self time of the five nested entry points may be negative by more
	// than 5% of the gateway median: a negative one means the inner entry
	// point was not measured on the same inputs.
	gateway := 0.0
	for _, name := range []string{"model.parse_ms", "serve.batcher_self_ms", "fleet.route_self_ms", "fleet.http_self_ms", "gateway.hop_self_ms"} {
		gateway += rep.Metrics[name].Value
	}
	if gateway <= 0 {
		t.Fatalf("gateway median %v ms", gateway)
	}
	for _, name := range []string{"serve.batcher_self_ms", "fleet.route_self_ms", "fleet.http_self_ms", "gateway.hop_self_ms"} {
		if v := rep.Metrics[name].Value; v < -0.05*gateway {
			t.Errorf("%s = %.4f ms, below -5%% of the gateway median %.4f ms", name, v, gateway)
		}
	}
	if rep.Metrics["gateway.sticky_ratio"].Value != 1 || rep.Metrics["dialogue.hit_ratio"].Value <= 0.5 {
		t.Errorf("session traffic: sticky ratio %v, session hit ratio %v", rep.Metrics["gateway.sticky_ratio"].Value, rep.Metrics["dialogue.hit_ratio"].Value)
	}

	spans, err := readSpans(out)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]span{}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d ends before it starts", s.Span)
		}
		if _, dup := byID[s.Span]; dup {
			t.Fatalf("span id %d used twice", s.Span)
		}
		byID[s.Span] = s
	}
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d names parent %d, which was never recorded", s.Span, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Errorf("span %d is in trace %d, its parent in trace %d", s.Span, s.Trace, p.Trace)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s span [%d, %d] lies outside its %s parent [%d, %d]", s.Layer, s.StartNS, s.EndNS, p.Layer, p.StartNS, p.EndNS)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	replays := 0
	for _, s := range spans {
		if s.Layer != "bench.replay" {
			continue
		}
		replays++
		kids := children[s.Span]
		if len(kids) != len(peelLayers) {
			t.Fatalf("replayed request has %d entry-point spans, want %d", len(kids), len(peelLayers))
		}
		for i, k := range kids {
			if k.Layer != peelLayers[i] {
				t.Errorf("entry point %d of a replayed request is %s, want %s", i, k.Layer, peelLayers[i])
			}
		}
	}
	if replays < peelMinUnits {
		t.Errorf("%d replayed requests in the trace", replays)
	}
}

func TestSpansRoundTripAsJSONL(t *testing.T) {
	rec := newRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				trace, root := rec.id(), rec.id()
				t0 := time.Now()
				rec.add(rec.id(), trace, root, "child", t0, t0.Add(time.Microsecond))
				rec.add(root, trace, 0, "root", t0, t0.Add(2*time.Microsecond))
			}
		}()
	}
	wg.Wait()
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := writeSpans(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 || !reflect.DeepEqual(got, rec.spans) {
		t.Errorf("%d spans read back, %d written; equal: %v", len(got), len(rec.spans), reflect.DeepEqual(got, rec.spans))
	}
	var nilRec *recorder
	nilRec.add(nilRec.id(), 0, 0, "ignored", time.Now(), time.Now())
}

// TestEndToEndRun drives a whole end-to-end run of a shrunken workload and
// checks that it reports exactly the declared metrics, and real timings.
func TestEndToEndRun(t *testing.T) {
	endToEnd, _, _ := benchmarkNames(t)
	rep, err := execute(quick("serve-sessions", 400), 1, 2, false, "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("end-to-end run: correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	sameNames(t, "end-to-end run", rep.Metrics, endToEnd)
	for _, name := range []string{"setup_s", "parse_p50_ms", "capacity_rps"} {
		if v := rep.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v", name, v)
		}
	}
}
