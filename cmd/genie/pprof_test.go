package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPprofListener: -pprof's listener answers /debug/pprof/cmdline with this
// process's command line, on a port of its own.
func TestPprofListener(t *testing.T) {
	ln, err := listenPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "test") {
		t.Fatalf("cmdline %q does not name the test binary", body)
	}
}
