// Command genie runs the Genie pipeline, the paper's experiments, and the
// parser-serving layer.
//
// Usage:
//
//	genie synthesize [-scale unit|small|full] [-n 10]
//	genie experiment fig7|fig8|table3|fig9|stats|errors|limitation|ifttt [-scale ...] [-seed N]
//	    [-workers N] [-cpuprofile cpu.out] [-memprofile mem.out]
//	genie experiment all [-scale ...]
//	genie train [-scale ...] [-seed N] [-strategy genie] [-maxsteps N] [-lmsteps N] [-batchsize B] [-bucket]
//	    [-calibrate 4] -out parser.snap
//	genie serve (-snapshot parser.snap | -train) [-cache DIR] [-addr :8080]
//	    [-batch 8] [-serve-workers N] [-beam 1] [-adaptive] [-pprof ADDR]
//	genie fleet -libdir DIR [-watch 2s] [-maxqueue 64] [-cache DIR] [-addr :8080]
//	    [-scale unit] [-maxsteps N] [-batch 8] [-beam 1] [-adaptive] [-train-workers 1]
//	    [-pprof ADDR]
//	genie gateway -backends URL,URL,... [-addr :8090]
//	    [-replication 2] [-probe 500ms] [-fail-threshold 3] [-retries 2]
//	    [-hedge] [-hedge-after 0] [-fallback] [-seed 1] [-pprof ADDR]
//	genie chaos -target URL [-addr :8091] [-ctl :8092]
//
// synthesize materializes the synthesized set and prints samples. train
// runs the full data pipeline plus parser training, stamps the library's
// grammar spec (constrained decoding) and a fitted confidence threshold
// (-calibrate), and writes a versioned binary snapshot; serve loads a
// snapshot (or trains, optionally through the checksum-keyed snapshot cache)
// and answers POST /parse with work-conserving batched decoding — with -adaptive it
// decodes greedily and escalates to the beam only below the snapshot's
// calibrated confidence threshold. fleet is the multi-skill control plane: one parser per <skill>.tt
// library in -libdir, trained in the background (through the checksum-keyed
// cache when -cache is set), served behind per-skill batching shards
// with bounded-queue admission control (429 + Retry-After when full),
// hot-swapped when the watcher sees a library's checksum change, routed by
// the request's "skill" field (or by best length-normalized score when
// absent), and observable on GET /skills and GET /metrics. gateway is the
// fault-tolerant routing tier in front of N fleet processes:
// consistent-hash routing by skill with R-way replication, least-loaded
// replica pick, health-checked membership with circuit-breaker readmission,
// deadline budgets, shed-aware retry and optional hedging. serve, fleet and
// gateway serve net/http/pprof on a listener of its own with -pprof ADDR.
// chaos is the fault-injection proxy the CI smoke uses to kill and restore a
// backend under load.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	goruntime "runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/genie"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
)

func main() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "synthesize":
		cmdSynthesize(os.Args[2:])
	case "experiment":
		cmdExperiment(os.Args[2:])
	case "train":
		cmdTrain(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "fleet":
		cmdFleet(os.Args[2:])
	case "gateway":
		cmdGateway(os.Args[2:])
	case "chaos":
		cmdChaos(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: genie synthesize|experiment|train|serve|fleet|gateway|chaos [args]")
	fmt.Fprintln(os.Stderr, "  genie synthesize -scale unit -n 10")
	fmt.Fprintln(os.Stderr, "  genie experiment fig7|fig8|table3|fig9|stats|errors|limitation|ifttt|all -scale unit -seed 1 \\")
	fmt.Fprintln(os.Stderr, "       [-workers 0] [-cpuprofile cpu.out] [-memprofile mem.out]")
	fmt.Fprintln(os.Stderr, "  genie train -scale unit -seed 1 -out parser.snap [-strategy genie] [-maxsteps N] [-lmsteps N] [-batchsize B] [-calibrate 4]")
	fmt.Fprintln(os.Stderr, "  genie serve -snapshot parser.snap -addr :8080 [-batch 8] [-serve-workers 0] [-beam 4] [-adaptive]")
	fmt.Fprintln(os.Stderr, "  genie serve -train -cache /var/cache/genie -scale unit   (train once per library checksum)")
	fmt.Fprintln(os.Stderr, "  genie fleet -libdir examples/fleet/skills -watch 2s -maxqueue 64   (one hot-swappable parser per skill)")
	fmt.Fprintln(os.Stderr, "  genie gateway -backends http://:8080,http://:8081 -replication 2 -retries 2   (fault-tolerant routing tier)")
	fmt.Fprintln(os.Stderr, "  genie chaos -target http://:8080 -addr :8091 -ctl :8092   (fault-injection proxy)")
	os.Exit(2)
}

func scaleFlag(fs *flag.FlagSet) *string {
	return fs.String("scale", "unit", "scale preset: unit, small or full")
}

func resolveScale(name string) genie.Scale {
	s, ok := genie.ScaleByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "genie: unknown scale %q\n", name)
		os.Exit(2)
	}
	return s
}

func cmdSynthesize(args []string) {
	fs := flag.NewFlagSet("synthesize", flag.ExitOnError)
	scaleName := scaleFlag(fs)
	n := fs.Int("n", 10, "examples to print")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	scale := resolveScale(*scaleName)

	lib := thingpedia.Builtin()
	d := genie.BuildData(lib, nltemplate.DefaultOptions, scale, *seed)
	fmt.Printf("synthesized %d sentences, %d paraphrases\n", len(d.Synth), len(d.Paraphrases))
	for i := 0; i < *n && i < len(d.Synth); i++ {
		fmt.Printf("  NL: %s\n  TT: %s\n", d.Synth[i].Sentence(), d.Synth[i].Program)
	}
}

func cmdExperiment(args []string) {
	if len(args) < 1 {
		usage()
	}
	which := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	scaleName := scaleFlag(fs)
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "concurrent training runs (0 = all CPUs); results are identical for any value")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args[1:])
	scale := resolveScale(*scaleName)
	scale.Workers = *workers

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genie: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "genie: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "genie: %v\n", err)
				return
			}
			defer f.Close()
			goruntime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "genie: %v\n", err)
			}
		}()
	}

	run := func(name string) {
		switch name {
		case "fig7":
			experiments.Fig7(scale, *seed).Print(os.Stdout)
		case "fig8":
			experiments.Fig8(scale, *seed).Print(os.Stdout)
		case "table3":
			experiments.Table3(scale, *seed).Print(os.Stdout)
		case "fig9":
			experiments.Fig9(scale, *seed).Print(os.Stdout)
		case "stats":
			experiments.Stats(scale, *seed).Print(os.Stdout)
		case "errors":
			experiments.Errors(scale, *seed).Print(os.Stdout)
		case "limitation":
			experiments.Limitation(scale, *seed).Print(os.Stdout)
		case "ifttt":
			experiments.IFTTTCleanup(scale, *seed).Print(os.Stdout)
		default:
			usage()
		}
		fmt.Println()
	}
	if which == "all" {
		for _, name := range []string{"stats", "fig7", "ifttt", "limitation", "fig8", "table3", "fig9", "errors"} {
			run(name)
		}
		return
	}
	run(which)
}
