package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/gateway"
)

// gatewayConfig is the -static-config file shape: the backend list plus any
// of the tuning knobs. Flags set explicitly on the command line override the
// file.
type gatewayConfig struct {
	Backends      []string `json:"backends"`
	Replication   int      `json:"replication,omitempty"`
	ProbeMS       int      `json:"probe_ms,omitempty"`
	FailThreshold int      `json:"fail_threshold,omitempty"`
	Retries       int      `json:"retries,omitempty"`
	Hedge         bool     `json:"hedge,omitempty"`
	HedgeAfterMS  int      `json:"hedge_after_ms,omitempty"`
	Fallback      bool     `json:"fallback,omitempty"`
}

// cmdGateway runs the fault-tolerant routing tier in front of N fleet
// processes: consistent-hash routing by skill with R-way replication,
// health-checked membership with circuit-breaker readmission, shed-aware
// retry and optional hedging.
func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	backends := fs.String("backends", "", "comma-separated fleet backend base URLs")
	staticConfig := fs.String("static-config", "", "JSON config file (flags set explicitly override it)")
	addr := fs.String("addr", ":8090", "listen address")
	replication := fs.Int("replication", 2, "distinct backends per skill on the hash ring")
	probe := fs.Duration("probe", 500*time.Millisecond, "health-probe interval")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive probe/request failures before ejection")
	retries := fs.Int("retries", 2, "retry budget: extra attempts after a failed first one")
	hedge := fs.Bool("hedge", false, "hedge slow requests to a second replica")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed hedge delay (0 derives 2x probed p99)")
	fallback := fs.Bool("fallback", false, "route degraded skills to any healthy backend's scored fallback")
	seed := fs.Int64("seed", 1, "retry-jitter seed")
	pprofAddr := pprofFlag(fs)
	fs.Parse(args)

	var addrs []string
	if *backends != "" {
		addrs = strings.Split(*backends, ",")
	}
	if *staticConfig != "" {
		raw, err := os.ReadFile(*staticConfig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genie: %v\n", err)
			os.Exit(1)
		}
		var cfg gatewayConfig
		if err := json.Unmarshal(raw, &cfg); err != nil {
			fmt.Fprintf(os.Stderr, "genie: %s: %v\n", *staticConfig, err)
			os.Exit(1)
		}
		// The file supplies defaults; explicitly-set flags win.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["backends"] && len(cfg.Backends) > 0 {
			addrs = cfg.Backends
		}
		if !set["replication"] && cfg.Replication > 0 {
			*replication = cfg.Replication
		}
		if !set["probe"] && cfg.ProbeMS > 0 {
			*probe = time.Duration(cfg.ProbeMS) * time.Millisecond
		}
		if !set["fail-threshold"] && cfg.FailThreshold > 0 {
			*failThreshold = cfg.FailThreshold
		}
		if !set["retries"] && cfg.Retries > 0 {
			*retries = cfg.Retries
		}
		if !set["hedge"] {
			*hedge = *hedge || cfg.Hedge
		}
		if !set["hedge-after"] && cfg.HedgeAfterMS > 0 {
			*hedgeAfter = time.Duration(cfg.HedgeAfterMS) * time.Millisecond
		}
		if !set["fallback"] {
			*fallback = *fallback || cfg.Fallback
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "genie: gateway needs -backends or -static-config")
		os.Exit(2)
	}
	startPprof(*pprofAddr)

	g := gateway.New(addrs, gateway.Options{
		Replication:        *replication,
		ProbeInterval:      *probe,
		FailThreshold:      *failThreshold,
		RetryBudget:        *retries,
		Hedge:              *hedge,
		HedgeAfter:         *hedgeAfter,
		CrossSkillFallback: *fallback,
		Seed:               *seed,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "genie: "+format+"\n", a...)
		},
	})
	defer g.Close()
	fmt.Fprintf(os.Stderr, "genie: gateway on %s over %d backends (replication=%d probe=%s retries=%d hedge=%t fallback=%t)\n",
		*addr, len(addrs), *replication, *probe, *retries, *hedge, *fallback)
	if err := http.ListenAndServe(*addr, g.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "genie: %v\n", err)
		os.Exit(1)
	}
}
