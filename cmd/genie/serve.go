package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

func strategyByName(name string) (genie.Strategy, bool) {
	for _, s := range []genie.Strategy{
		genie.StrategyGenie, genie.StrategySynthesizedOnly,
		genie.StrategyParaphraseOnly, genie.StrategyBaseline,
	} {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// trainParser runs the full data pipeline and parser training over the
// built-in library for one (scale, strategy, seed) recipe.
func trainParser(scale genie.Scale, strategy genie.Strategy, seed int64, maxSteps, lmSteps, batchSize int, bucket bool) (*model.Parser, *genie.Data) {
	return trainParserLib(thingpedia.Builtin(), scale, strategy, seed, maxSteps, lmSteps, batchSize, bucket, false, nil, 0)
}

// trainParserLib is trainParser over an arbitrary skill library (the fleet
// trains one parser per library file); maxSteps/lmSteps (-1 = keep preset)
// let the CI smoke tests cap the run, batchSize > 1 trains on shuffled
// minibatches through the batched kernels (0 = scale preset), and bucket
// length-buckets those minibatches to cut padding waste. dialogue augments
// training with synthesized multi-turn sessions and produces a contextual
// parser (snapshot v4) whose decodes can condition on the previous turn's
// program. A non-nil ck makes
// the run resumable: checkpoints every ckSteps optimizer steps, and a
// restart that finds a compatible checkpoint picks the trajectory back up
// instead of retraining from scratch.
func trainParserLib(lib *thingpedia.Library, scale genie.Scale, strategy genie.Strategy, seed int64, maxSteps, lmSteps, batchSize int, bucket, dialogue bool, ck model.CheckpointStore, ckSteps int) (*model.Parser, *genie.Data) {
	d := genie.BuildData(lib, nltemplate.DefaultOptions, scale, seed)
	mcfg := scale.Model
	if maxSteps > 0 {
		mcfg.MaxSteps = maxSteps
	}
	if lmSteps >= 0 {
		mcfg.LMSteps = lmSteps
		if lmSteps == 0 {
			mcfg.PretrainLM = false
		}
	}
	if batchSize > 0 {
		mcfg.BatchSize = batchSize
	}
	mcfg.BucketByLength = bucket
	tp := d.Train(genie.TrainOptions{
		Strategy: strategy, Topt: genie.CanonicalTargets, Model: mcfg, Seed: seed,
		Dialogue:   dialogue,
		Checkpoint: ck, CheckpointEverySteps: ckSteps,
	})
	// Stamp the library's grammar spec so every decode path is constrained to
	// well-formed programs; the spec also travels with the snapshot (v3). A
	// vocabulary too small to express any program keeps decoding unmasked.
	if err := tp.Parser.SetGrammar(grammar.NewSpec(lib.Functions())); err != nil {
		fmt.Fprintf(os.Stderr, "genie: grammar mask unavailable, decoding unconstrained: %v\n", err)
	}
	return tp.Parser, d
}

// calibrateParser fits the adaptive-decoding confidence threshold on the
// validation split and stamps it into the parser (and thus the snapshot).
func calibrateParser(parser *model.Parser, d *genie.Data, width int) {
	rep := eval.FitCalibration(parser, d.Validation, d.Lib, width)
	parser.SetCalibration(model.Calibration{Fitted: rep.Fitted, Threshold: rep.Threshold})
	fmt.Fprintf(os.Stderr, "genie: %s\n", rep)
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	scaleName := scaleFlag(fs)
	seed := fs.Int64("seed", 1, "random seed")
	strategyName := fs.String("strategy", "genie", "training strategy: genie, synthesized-only, paraphrase-only or baseline")
	out := fs.String("out", "parser.snap", "snapshot output path")
	maxSteps := fs.Int("maxsteps", 0, "cap on training steps (0 = scale preset)")
	lmSteps := fs.Int("lmsteps", -1, "LM pre-training steps (-1 = scale preset, 0 = skip)")
	batchSize := fs.Int("batchsize", 0, "training minibatch size (0 = scale preset, 1 = per-example)")
	bucket := fs.Bool("bucket", false, "length-bucket training minibatches (cuts padding waste; needs -batchsize > 1)")
	doEval := fs.Bool("eval", true, "score the trained parser on the validation set")
	calibrate := fs.Int("calibrate", 4, "beam width for confidence-threshold calibration on the validation set (<=1 = skip)")
	fs.Parse(args)
	scale := resolveScale(*scaleName)
	strategy, ok := strategyByName(*strategyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "genie: unknown strategy %q\n", *strategyName)
		os.Exit(2)
	}

	start := time.Now()
	parser, d := trainParser(scale, strategy, *seed, *maxSteps, *lmSteps, *batchSize, *bucket)
	fmt.Fprintf(os.Stderr, "genie: trained %s/%s seed=%d in %s\n", scale.Name, strategy, *seed, time.Since(start).Round(time.Millisecond))
	if *doEval {
		rep := eval.EvaluateBatched(parser, d.Validation, d.Lib, 16)
		fmt.Fprintf(os.Stderr, "genie: validation program accuracy %.1f%% (function %.1f%%, %d examples)\n",
			rep.ProgramAccuracy(), rep.FunctionAccuracy(), rep.Total)
	}
	if *calibrate > 1 {
		calibrateParser(parser, d, *calibrate)
	}
	if err := parser.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "genie: saving snapshot: %v\n", err)
		os.Exit(1)
	}
	e, h := parser.Dims()
	sv, tv := parser.VocabSizes()
	fmt.Printf("saved %s (embed=%d hidden=%d src-vocab=%d tgt-vocab=%d)\n", *out, e, h, sv, tv)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	snapshot := fs.String("snapshot", "", "serve a trained snapshot (from genie train)")
	doTrain := fs.Bool("train", false, "train on startup instead of loading a snapshot")
	cacheDir := fs.String("cache", "", "snapshot-cache directory keyed by skill-library checksum (with -train)")
	scaleName := scaleFlag(fs)
	seed := fs.Int64("seed", 1, "random seed (with -train)")
	strategyName := fs.String("strategy", "genie", "training strategy (with -train)")
	maxSteps := fs.Int("maxsteps", 0, "cap on training steps (with -train; 0 = scale preset)")
	lmSteps := fs.Int("lmsteps", -1, "LM pre-training steps (with -train; -1 = scale preset, 0 = skip)")
	batchSize := fs.Int("batchsize", 0, "training minibatch size (with -train; 0 = scale preset)")
	bucket := fs.Bool("bucket", false, "length-bucket training minibatches (with -train)")
	addr := fs.String("addr", ":8080", "listen address")
	batch := fs.Int("batch", 8, "most queued requests one decode worker takes into a batch")
	workers := fs.Int("serve-workers", 0, "decode workers (0 = all CPUs)")
	beam := fs.Int("beam", 1, "beam width (1 = greedy)")
	adaptive := fs.Bool("adaptive", false, "confidence-routed decode: greedy first, escalate to -beam below the snapshot's calibrated threshold")
	pprofAddr := pprofFlag(fs)
	fs.Parse(args)
	startPprof(*pprofAddr)

	var parser *model.Parser
	switch {
	case *snapshot != "":
		var err error
		parser, err = model.LoadFile(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genie: loading snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "genie: loaded snapshot %s\n", *snapshot)
	case *doTrain:
		scale := resolveScale(*scaleName)
		strategy, ok := strategyByName(*strategyName)
		if !ok {
			fmt.Fprintf(os.Stderr, "genie: unknown strategy %q\n", *strategyName)
			os.Exit(2)
		}
		lib := thingpedia.Builtin()
		key := serve.Key(lib, scale.Name, strategy.String(),
			fmt.Sprintf("seed=%d", *seed), fmt.Sprintf("maxsteps=%d", *maxSteps),
			fmt.Sprintf("lmsteps=%d", *lmSteps), fmt.Sprintf("batchsize=%d", *batchSize),
			fmt.Sprintf("bucket=%t", *bucket),
			fmt.Sprintf("calibrate=%t:%d", *adaptive, *beam))
		var store *durable.Store
		if *cacheDir != "" {
			store = durable.Open(*cacheDir, durable.Options{})
		}
		cache := serve.NewCache(store)
		start := time.Now()
		p, hit, err := cache.GetOrTrain(key, func() (*model.Parser, error) {
			p, d := trainParser(scale, strategy, *seed, *maxSteps, *lmSteps, *batchSize, *bucket)
			if *adaptive && *beam > 1 {
				calibrateParser(p, d, *beam)
			}
			return p, nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "genie: training: %v\n", err)
			os.Exit(1)
		}
		parser = p
		if hit {
			fmt.Fprintf(os.Stderr, "genie: snapshot cache hit for library checksum (key %s…), skipped training\n", key[:12])
		} else {
			fmt.Fprintf(os.Stderr, "genie: trained %s/%s seed=%d in %s (cache key %s…)\n",
				scale.Name, strategy, *seed, time.Since(start).Round(time.Millisecond), key[:12])
		}
	default:
		fmt.Fprintln(os.Stderr, "genie: serve needs -snapshot or -train")
		os.Exit(2)
	}

	if *adaptive {
		if calib := parser.Calibration(); calib.Fitted {
			fmt.Fprintf(os.Stderr, "genie: adaptive decode on (threshold %.4f, beam %d)\n", calib.Threshold, *beam)
		} else {
			fmt.Fprintln(os.Stderr, "genie: adaptive decode requested but the parser has no fitted calibration; serving greedy")
		}
	}
	srv := serve.NewServer(parser, serve.Options{
		MaxBatch: *batch,
		Workers:  *workers,
		Beam:     *beam,
		Adaptive: *adaptive,
	})
	defer srv.Close()
	e, h := parser.Dims()
	sv, tv := parser.VocabSizes()
	fmt.Fprintf(os.Stderr, "genie: serving on %s (embed=%d hidden=%d src-vocab=%d tgt-vocab=%d batch=%d beam=%d adaptive=%t)\n",
		*addr, e, h, sv, tv, *batch, *beam, *adaptive)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "genie: %v\n", err)
		os.Exit(1)
	}
}
