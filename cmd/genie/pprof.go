package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

func pprofFlag(fs *flag.FlagSet) *string {
	return fs.String("pprof", "", "serve net/http/pprof at this address on its own listener, e.g. 127.0.0.1:6060 (empty = off)")
}

// listenPprof serves net/http/pprof's handlers under /debug/pprof/ on a
// listener of their own at addr, apart from the service's port, until the
// returned listener is closed.
func listenPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux) // returns once ln is closed
	return ln, nil
}

// startPprof is listenPprof for the lifetime of the process; an empty addr
// starts nothing.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	ln, err := listenPprof(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genie: pprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "genie: pprof on http://%s/debug/pprof/\n", ln.Addr())
}
