package main

import (
	"reflect"
	"testing"
)

// TestParseKeepsProcs: the -N GOMAXPROCS suffix of a benchmark line becomes
// Procs, so -cpu 1,2 records two results per leg, and speedups pair legs at
// the same GOMAXPROCS only.
func TestParseKeepsProcs(t *testing.T) {
	results := parse([]string{
		"BenchmarkTrainStepBatched/B=1         	      50	   1200000 ns/op	   1200000 ns/example	 0 allocs/op",
		"BenchmarkTrainStepBatched/B=1-2       	      50	   1100000 ns/op	   1100000 ns/example	 0 allocs/op",
		"BenchmarkTrainStepBatched/B=16        	      50	   6400000 ns/op	    400000 ns/example	 0 allocs/op",
		"BenchmarkTrainStepBatched/B=16-2      	      50	   4400000 ns/op	    275000 ns/example	 0 allocs/op",
	})
	var procs []int
	for _, r := range results {
		if r.Name != "BenchmarkTrainStepBatched/B=1" && r.Name != "BenchmarkTrainStepBatched/B=16" {
			t.Errorf("name %q", r.Name)
		}
		procs = append(procs, r.Procs)
	}
	if want := []int{0, 2, 0, 2}; !reflect.DeepEqual(procs, want) {
		t.Errorf("procs %v, want %v", procs, want)
	}
	got := speedups(results)
	want := []Speedup{
		{Benchmark: "TrainStepBatched/B=1", Metric: "ns/example", Base: "BenchmarkTrainStepBatched/B=1", Against: "BenchmarkTrainStepBatched/B=16", Speedup: 3},
		{Benchmark: "TrainStepBatched/B=1", Procs: 2, Metric: "ns/example", Base: "BenchmarkTrainStepBatched/B=1", Against: "BenchmarkTrainStepBatched/B=16", Speedup: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("speedups %+v, want %+v", got, want)
	}
}
