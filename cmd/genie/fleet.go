package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// cmdFleet runs the multi-skill parser fleet: one trained parser per
// <skill>.tt library in -libdir, each serving behind its own batching
// shard with bounded-queue admission control, hot-swapped when the watcher
// sees the library's checksum change.
func cmdFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	libdir := fs.String("libdir", "", "skill-library directory (one <skill>.tt per skill)")
	watch := fs.Duration("watch", 2*time.Second, "library watch interval (0 disables hot reload)")
	maxQueue := fs.Int("maxqueue", 0, "per-skill admission queue bound (0 = 8x batch, negative = unbounded)")
	cacheDir := fs.String("cache", "", "snapshot-cache directory keyed by skill-library checksum")
	ckptDir := fs.String("checkpoint", "", "training-checkpoint directory (restarts resume in-flight training)")
	ckptSteps := fs.Int("ckpt-steps", 25, "mid-epoch checkpoint cadence in optimizer steps (0 = epoch boundaries only)")
	scaleName := scaleFlag(fs)
	seed := fs.Int64("seed", 1, "random seed")
	strategyName := fs.String("strategy", "genie", "training strategy")
	maxSteps := fs.Int("maxsteps", 0, "cap on training steps (0 = scale preset)")
	lmSteps := fs.Int("lmsteps", -1, "LM pre-training steps (-1 = scale preset, 0 = skip)")
	batchSize := fs.Int("batchsize", 0, "training minibatch size (0 = scale preset)")
	bucket := fs.Bool("bucket", false, "length-bucket training minibatches (cuts padding waste)")
	dialogue := fs.Bool("dialogue", false, "train contextual parsers on synthesized multi-turn sessions; X-Genie-Session requests then resolve follow-ups against the session's previous program")
	sessionCap := fs.Int("sessions", 0, "per-skill dialogue session-store capacity (0 = default)")
	trainWorkers := fs.Int("train-workers", 1, "concurrent background training runs")
	addr := fs.String("addr", ":8080", "listen address")
	batch := fs.Int("batch", 8, "most queued requests one decode worker takes into a batch (per skill)")
	workers := fs.Int("serve-workers", 0, "decode workers per skill (0 = all CPUs)")
	beam := fs.Int("beam", 1, "beam width (1 = greedy)")
	adaptive := fs.Bool("adaptive", false, "confidence-routed decode: greedy first, escalate to -beam below each skill's calibrated threshold")
	pprofAddr := pprofFlag(fs)
	fs.Parse(args)
	if *libdir == "" {
		fmt.Fprintln(os.Stderr, "genie: fleet needs -libdir")
		os.Exit(2)
	}
	startPprof(*pprofAddr)
	scale := resolveScale(*scaleName)
	strategy, ok := strategyByName(*strategyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "genie: unknown strategy %q\n", *strategyName)
		os.Exit(2)
	}

	var cache *serve.Cache
	if *cacheDir != "" {
		cache = serve.NewCache(durable.Open(*cacheDir, durable.Options{}))
	}
	var ckpts *durable.Store
	if *ckptDir != "" {
		ckpts = durable.Open(*ckptDir, durable.Options{})
	}
	cfg := fleet.Config{
		LibDir: *libdir,
		Watch:  *watch,
		Serve: serve.Options{
			MaxBatch: *batch,
			Workers:  *workers,
			Beam:     *beam,
			MaxQueue: *maxQueue,
			Adaptive: *adaptive,
		},
		Train: func(name string, lib *thingpedia.Library) (*model.Parser, error) {
			var ck model.CheckpointStore
			if ckpts != nil {
				ck = ckpts.Key("skill-" + name)
			}
			p, d := trainParserLib(lib, scale, strategy, *seed, *maxSteps, *lmSteps, *batchSize, *bucket, *dialogue, ck, *ckptSteps)
			if *adaptive && *beam > 1 {
				calibrateParser(p, d, *beam)
			}
			return p, nil
		},
		Cache: cache,
		CacheExtra: []string{
			scale.Name, strategy.String(),
			fmt.Sprintf("seed=%d", *seed), fmt.Sprintf("maxsteps=%d", *maxSteps),
			fmt.Sprintf("lmsteps=%d", *lmSteps), fmt.Sprintf("batchsize=%d", *batchSize),
			fmt.Sprintf("bucket=%t", *bucket),
			fmt.Sprintf("dialogue=%t", *dialogue),
			fmt.Sprintf("calibrate=%t:%d", *adaptive, *beam),
		},
		SessionCapacity: *sessionCap,
		TrainWorkers:    *trainWorkers,
	}
	reg, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genie: %v\n", err)
		os.Exit(1)
	}
	srv := fleet.NewServer(reg)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "genie: fleet serving %s on %s (watch=%s batch=%d beam=%d adaptive=%t maxqueue=%d)\n",
		*libdir, *addr, *watch, *batch, *beam, *adaptive, *maxQueue)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "genie: %v\n", err)
		os.Exit(1)
	}
}
