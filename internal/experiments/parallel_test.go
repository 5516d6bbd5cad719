package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/genie"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
)

// tinyScale is a deliberately small preset: big enough that every pipeline
// stage produces data, small enough that training a model takes well under a
// second even with -race.
func tinyScale(workers int) genie.Scale {
	s := genie.Unit
	s.SynthTarget = 12
	s.MaxDepth = 3
	s.ParaphraseMax = 80
	s.TrainCap = 150
	s.EvalN = 20
	s.Seeds = []int64{1, 2}
	s.Workers = workers
	s.Model = model.Config{
		EmbedDim: 16, HiddenDim: 24, LR: 5e-3, Epochs: 1,
		EvalEvery: 1 << 30, PointerGen: true, PretrainLM: false,
		MaxDecodeLen: 24, MinVocabCount: 3,
	}
	return s
}

// TestFig8ParallelDeterminism asserts the parallel-training determinism
// contract: the Fig8 harness produces bit-identical results for Workers=1
// and Workers=4 (run with -race in CI to also catch data races in the shared
// genie.Data).
func TestFig8ParallelDeterminism(t *testing.T) {
	seq := fig8TinySeq()
	par := Fig8(tinyScale(4), 1)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig8 differs between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", seq.Cells, par.Cells)
	}
}

// fig8TinySeq is Fig8(tinyScale(1), 1), trained once for the determinism
// test and the golden test.
var fig8TinySeq = sync.OnceValue(func() Fig8Result { return Fig8(tinyScale(1), 1) })

// Regenerate only after an intentional numerics change:
//
//	go test ./internal/experiments -run TestFig8TinyGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/fig8_tiny.golden")

// TestFig8TinyGolden pins the tiny Fig. 8 table — the printed rows and the
// bits of every mean and half-range — to the values recorded before the nn
// kernels were rebuilt. A tiny model parses nothing correctly, so the table
// alone is all zeros; the weights line is the oracle: a digest of every
// weight bit of the Genie-strategy, seed-1 parser of that same run (data
// build, then B=1 training, end to end), which moves if any rounding of any
// training step does.
func TestFig8TinyGolden(t *testing.T) {
	res := fig8TinySeq()
	var buf bytes.Buffer
	res.Print(&buf)
	for _, name := range res.Strategies {
		for _, set := range res.Sets {
			c := res.Cells[name][set]
			fmt.Fprintf(&buf, "%s/%s %016x %016x\n", name, set, math.Float64bits(c.Mean), math.Float64bits(c.HalfRange))
		}
	}
	scale := tinyScale(1)
	d := genie.BuildData(thingpedia.Builtin(), nltemplate.DefaultOptions, scale, 1)
	p := d.Train(genie.TrainOptions{Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets, Model: scale.Model, Seed: 1})
	h := sha256.New()
	var word [8]byte
	for _, w := range p.Parser.Params() {
		for _, v := range w.W {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	fmt.Fprintf(&buf, "weights Genie/seed 1 sha256 %x\n", h.Sum(nil))
	path := filepath.Join("testdata", "fig8_tiny.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tiny Fig. 8 table moved:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTable3ParallelDeterminism covers the Table3 merge arithmetic
// (ci*nSeeds+si) the same way.
func TestTable3ParallelDeterminism(t *testing.T) {
	seq := Table3(tinyScale(1), 1)
	par := Table3(tinyScale(4), 1)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Table3 differs between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig9TACLParallelDeterminism covers the even-baseline/odd-genie job
// interleave shared by fig9TACL and runStrategyPair.
func TestFig9TACLParallelDeterminism(t *testing.T) {
	seq := fig9TACL(tinyScale(1), 1)
	par := fig9TACL(tinyScale(4), 1)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("fig9TACL differs between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunJobsCoversAllIndicesOnce checks the pool's scheduling invariants
// directly: every job index runs exactly once at any worker count.
func TestRunJobsCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 37
		var counts [n]atomic.Int32
		runJobs(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}
