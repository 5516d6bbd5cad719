package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/gateway"
)

// cmdGateway runs the fault-tolerant routing tier in front of N fleet
// processes: consistent-hash routing by skill with R-way replication,
// health-checked membership with circuit-breaker readmission, shed-aware
// retry and optional hedging.
func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	backends := fs.String("backends", "", "comma-separated fleet backend base URLs")
	addr := fs.String("addr", ":8090", "listen address")
	options := gatewayFlags(fs)
	pprofAddr := pprofFlag(fs)
	fs.Parse(args)

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "genie: gateway needs -backends")
		os.Exit(2)
	}
	addrs := strings.Split(*backends, ",")
	startPprof(*pprofAddr)

	opt := options()
	g := gateway.New(addrs, opt)
	defer g.Close()
	fmt.Fprintf(os.Stderr, "genie: gateway on %s over %d backends (replication=%d probe=%s retries=%d hedge=%t fallback=%t)\n",
		*addr, len(addrs), opt.Replication, opt.ProbeInterval, max(opt.RetryBudget, 0), opt.Hedge, opt.CrossSkillFallback)
	if err := http.ListenAndServe(*addr, g.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "genie: %v\n", err)
		os.Exit(1)
	}
}

// gatewayFlags registers the gateway's tuning flags on fs and returns the
// function that builds gateway.Options from them once fs is parsed.
// gateway.Options reads a zero RetryBudget as its default of 2, so an
// explicit -retries 0 becomes a negative budget: no retries.
func gatewayFlags(fs *flag.FlagSet) func() gateway.Options {
	replication := fs.Int("replication", 2, "distinct backends per skill on the hash ring")
	probe := fs.Duration("probe", 500*time.Millisecond, "health-probe interval")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive probe/request failures before ejection")
	retries := fs.Int("retries", 2, "retry budget: extra attempts after a failed first one (0 disables retries)")
	hedge := fs.Bool("hedge", false, "hedge slow requests to a second replica")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed hedge delay (0 derives 2x probed p99)")
	fallback := fs.Bool("fallback", false, "route degraded skills to any healthy backend's scored fallback")
	seed := fs.Int64("seed", 1, "retry-jitter seed")
	return func() gateway.Options {
		budget := *retries
		if budget <= 0 {
			budget = -1
		}
		return gateway.Options{
			Replication:        *replication,
			ProbeInterval:      *probe,
			FailThreshold:      *failThreshold,
			RetryBudget:        budget,
			Hedge:              *hedge,
			HedgeAfter:         *hedgeAfter,
			CrossSkillFallback: *fallback,
			Seed:               *seed,
		}
	}
}
