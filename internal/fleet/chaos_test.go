package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// The chaos scenario re-execs the test binary as a real fleet process
// (TestChaosHelperProcess) so the parent can SIGKILL it mid-train — an
// in-process goroutine cannot be killed. Both processes share these
// deterministic training inputs, so the parent can independently train the
// reference model and assert the resumed trajectory is bit-identical.

func chaosPairs() []model.Pair {
	values := []string{
		"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
		"golf", "hotel", "india", "juliet", "kilo", "lima",
		"mike", "november", "oscar", "papa", "quebec", "romeo",
		"sierra", "tango", "uniform", "victor", "whiskey", "xray",
	}
	pairs := make([]model.Pair, 0, len(values))
	for _, v := range values {
		pairs = append(pairs, model.Pair{
			Src: []string{"tweet", v, "now"},
			Tgt: []string{"now", "=>", "@twitter.post", "param:text", "=", `"`, v, `"`},
		})
	}
	return pairs
}

func chaosSplit() (train, val []model.Pair) {
	pairs := chaosPairs()
	return pairs[:20], pairs[20:]
}

func chaosConfig() model.Config {
	return model.Config{
		EmbedDim:      24,
		HiddenDim:     32,
		LR:            5e-3,
		Epochs:        200,
		MaxSteps:      600,
		EvalEvery:     1 << 30, // no early stopping: the step count is fixed
		PointerGen:    true,
		MaxDecodeLen:  16,
		MinVocabCount: 1,
		Seed:          7,
	}
}

// chaosTrainFunc is the victim fleet's TrainFunc: resumable training with
// checkpoints every 10 optimizer steps into the durable checkpoint store.
func chaosTrainFunc(ckpts *durable.Store) TrainFunc {
	return func(name string, lib *thingpedia.Library) (*model.Parser, error) {
		train, val := chaosSplit()
		return model.TrainResumable(context.Background(), train, val, nil, chaosConfig(), model.TrainOpts{
			Checkpoint: ckpts.Key("skill-" + name),
			EverySteps: 10,
		})
	}
}

// TestChaosHelperProcess is not a test: it is the victim fleet process,
// re-exec'd by TestChaosSIGKILLWarmRestart with GENIE_FLEET_CHAOS_HELPER=1.
func TestChaosHelperProcess(t *testing.T) {
	if os.Getenv("GENIE_FLEET_CHAOS_HELPER") != "1" {
		t.Skip("helper process for TestChaosSIGKILLWarmRestart")
	}
	libDir := os.Getenv("GENIE_CHAOS_LIBDIR")
	ckptDir := os.Getenv("GENIE_CHAOS_CKPTDIR")
	cacheDir := os.Getenv("GENIE_CHAOS_CACHEDIR")
	addr := os.Getenv("GENIE_CHAOS_ADDR")

	log.SetOutput(os.Stderr)
	ckpts := durable.Open(ckptDir, durable.Options{})
	r, err := New(Config{
		LibDir: libDir,
		Serve:  serve.Options{MaxBatch: 4, Workers: 2, MaxQueue: -1},
		Train:  chaosTrainFunc(ckpts),
		Cache:  serve.NewCache(durable.Open(cacheDir, durable.Options{})),
	})
	if err != nil {
		log.Fatalf("chaos helper: %v", err)
	}
	srv := NewServer(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("chaos helper listen: %v", err)
	}
	log.Printf("chaos helper serving on %s", addr)
	// Runs until the parent kills the process (SIGKILL both times).
	log.Fatal(http.Serve(ln, srv.Handler()))
}

// TestChaosSIGKILLWarmRestart is the acceptance chaos scenario from the
// durability issue: a fleet process is SIGKILLed mid-train under live
// gateway load, restarted, and must (a) resume training from the durable
// checkpoint rather than starting over, (b) end bit-identical to an
// uninterrupted run, and (c) cost zero client-visible failures — the
// gateway's second replica covers the outage.
func TestChaosSIGKILLWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test")
	}
	libDir, ckptDir, cacheDir := t.TempDir(), t.TempDir(), t.TempDir()
	libPath := writeLib(t, libDir, "alpha", libV1("test.alpha"))

	// Stable in-process replica: same skill, instant training. It carries
	// the load while the victim is down.
	stableDir := t.TempDir()
	writeLib(t, stableDir, "alpha", libV1("test.alpha"))
	stable, err := New(testConfig(stableDir, &sync.Map{}))
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	waitReady(t, stable)
	stableTS := httptest.NewServer(NewServer(stable).Handler())
	defer stableTS.Close()

	// Reserve a port for the victim so both incarnations share an address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	victimAddr := ln.Addr().String()
	ln.Close()
	victimURL := "http://" + victimAddr

	g := gateway.New([]string{victimURL, stableTS.URL}, gateway.Options{
		Replication:   2,
		RetryBudget:   2,
		ProbeInterval: 30 * time.Millisecond,
		FailThreshold: 2,
		Seed:          1,
	})
	defer g.Close()
	gwTS := httptest.NewServer(g.Handler())
	defer gwTS.Close()

	// Continuous client load through the gateway for the whole scenario.
	var ok200, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(serve.ParseRequest{Skill: "alpha", Words: []string{"tweet", "alpha", "now"}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(gwTS.URL+"/parse", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok200.Add(1)
				} else {
					failed.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// First incarnation: starts training, gets SIGKILLed once checkpoints
	// prove it is mid-train.
	run1Log := startChaosHelper(t, libDir, ckptDir, cacheDir, victimAddr)
	waitForCheckpoint(t, ckptDir)
	if err := run1Log.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}
	run1Log.cmd.Wait()
	t.Logf("victim killed mid-train; checkpoint generations on disk: %v",
		durable.Open(ckptDir, durable.Options{}).Generations("skill-alpha"))

	// Second incarnation: must resume, finish, and serve.
	restartAt := time.Now()
	run2Log := startChaosHelper(t, libDir, ckptDir, cacheDir, victimAddr)
	waitVictimReady(t, victimURL)
	t.Logf("victim warm restart to ready in %v", time.Since(restartAt))

	// Let load flow against the recovered fleet, then stop the clients.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	run2Log.cmd.Process.Kill()
	run2Log.cmd.Wait()

	if n := failed.Load(); n != 0 {
		t.Errorf("client-visible failures = %d, want 0 (replica + retries must absorb the kill)", n)
	}
	if ok200.Load() == 0 {
		t.Fatal("no load was driven through the gateway")
	}
	log2 := run2Log.contents(t)
	if !strings.Contains(log2, "resuming from checkpoint") {
		t.Errorf("restarted victim never logged a checkpoint resume; log:\n%s", log2)
	}

	// Bit-identity: the snapshot the recovered fleet cached must equal an
	// uninterrupted in-process training run on the same inputs.
	lib, err := thingpedia.LoadLibraryFile(libPath)
	if err != nil {
		t.Fatal(err)
	}
	key := serve.Key(lib, "fleet")
	var resumed *model.Parser
	err = durable.Open(cacheDir, durable.Options{}).Load(key, func(r io.Reader) error {
		resumed, err = model.Load(r)
		return err
	})
	if err != nil {
		t.Fatalf("loading recovered snapshot %q: %v", key, err)
	}
	train, val := chaosSplit()
	reference := model.Train(train, val, nil, chaosConfig())
	assertSameParams(t, reference, resumed)
}

type chaosHelper struct {
	cmd     *exec.Cmd
	logPath string
}

func (h *chaosHelper) contents(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(h.logPath)
	if err != nil {
		t.Fatalf("reading helper log: %v", err)
	}
	return string(b)
}

func startChaosHelper(t *testing.T, libDir, ckptDir, cacheDir, addr string) *chaosHelper {
	t.Helper()
	logFile, err := os.CreateTemp(t.TempDir(), "chaos-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestChaosHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"GENIE_FLEET_CHAOS_HELPER=1",
		"GENIE_CHAOS_LIBDIR="+libDir,
		"GENIE_CHAOS_CKPTDIR="+ckptDir,
		"GENIE_CHAOS_CACHEDIR="+cacheDir,
		"GENIE_CHAOS_ADDR="+addr,
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting chaos helper: %v", err)
	}
	path := logFile.Name()
	logFile.Close()
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return &chaosHelper{cmd: cmd, logPath: path}
}

// waitForCheckpoint blocks until the victim has durably written at least two
// checkpoint generations — proof it is mid-train, past the initial save.
func waitForCheckpoint(t *testing.T, ckptDir string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		entries, _ := os.ReadDir(ckptDir)
		gens := 0
		for _, e := range entries {
			if strings.Contains(e.Name(), ".g") && !strings.HasPrefix(e.Name(), ".") {
				gens++
			}
		}
		if gens >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never wrote 2 checkpoint generations; dir: %v", names(entries))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func names(entries []os.DirEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name()
	}
	return out
}

func waitVictimReady(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/skills")
		if err == nil {
			var sr serve.SkillsResponse
			jsonErr := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if jsonErr == nil {
				for _, s := range sr.Skills {
					if s.Name == "alpha" && s.Status == StatusReady {
						return
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted victim never reached ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func assertSameParams(t *testing.T, want, got *model.Parser) {
	t.Helper()
	wp, gp := want.Params(), got.Params()
	if len(wp) != len(gp) {
		t.Fatalf("param tensor count %d != %d", len(gp), len(wp))
	}
	for i := range wp {
		if len(wp[i].W) != len(gp[i].W) {
			t.Fatalf("tensor %d size %d != %d", i, len(gp[i].W), len(wp[i].W))
		}
		for j := range wp[i].W {
			if wp[i].W[j] != gp[i].W[j] {
				t.Fatalf("resumed trajectory diverged: tensor %d element %d: %v != %v",
					i, j, gp[i].W[j], wp[i].W[j])
			}
		}
	}
}

// TestCorruptSnapshotServesLastGoodThroughGateway: a fleet restarting onto a
// corrupted newest snapshot generation must quarantine it, roll back to the
// previous generation, and serve every gateway request — no retrain, no
// client failures.
func TestCorruptSnapshotServesLastGoodThroughGateway(t *testing.T) {
	libDir, cacheDir := t.TempDir(), t.TempDir()
	libPath := writeLib(t, libDir, "alpha", libV1("test.alpha"))
	lib, err := thingpedia.LoadLibraryFile(libPath)
	if err != nil {
		t.Fatal(err)
	}
	key := serve.Key(lib, "fleet")

	// First fleet lifetime: train once, snapshot lands as generation 1.
	counts := &sync.Map{}
	cfg1 := testConfig(libDir, counts)
	cfg1.Cache = serve.NewCache(durable.Open(cacheDir, durable.Options{}))
	r1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, r1)
	// A second generation of the same snapshot — this is the one we corrupt.
	p := toyParser("alpha")
	if err := cfg1.Cache.Store().Save(key, p.Save); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	// Flip one payload byte in the newest generation on disk.
	gen2 := filepath.Join(cacheDir, key+".g2")
	raw, err := os.ReadFile(gen2)
	if err != nil {
		t.Fatalf("reading generation 2 (%s): %v", gen2, err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(gen2, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: cold start onto the corrupt snapshot.
	cfg2 := testConfig(libDir, counts)
	cfg2.Cache = serve.NewCache(durable.Open(cacheDir, durable.Options{}))
	r2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	waitReady(t, r2)

	ts := httptest.NewServer(NewServer(r2).Handler())
	defer ts.Close()
	g := gateway.New([]string{ts.URL}, gateway.Options{Replication: 1, Seed: 1})
	defer g.Close()
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()

	body, _ := json.Marshal(serve.ParseRequest{Skill: "alpha", Words: []string{"tweet", "alpha", "now"}})
	for i := 0; i < 20; i++ {
		resp, err := http.Post(gts.URL+"/parse", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("parse %d through gateway: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parse %d through gateway = HTTP %d, want 200", i, resp.StatusCode)
		}
	}

	st := cfg2.Cache.Stats()
	if st.Store.Rollbacks != 1 || st.Store.Quarantined != 1 {
		t.Errorf("store stats = %+v, want 1 rollback / 1 quarantined", st.Store)
	}
	if st.Trainings != 0 {
		t.Errorf("trainings on restart = %d, want 0 (last-good snapshot must serve)", st.Trainings)
	}
	c, _ := counts.Load("alpha")
	if n := c.(*atomic.Int64).Load(); n != 1 {
		t.Errorf("total builds = %d, want 1 (restart must not retrain)", n)
	}
	if _, err := os.Stat(gen2 + ".corrupt"); err != nil {
		t.Errorf("corrupt generation not quarantined to sidecar: %v", err)
	}
}
