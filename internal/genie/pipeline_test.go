package genie

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
)

func collectPipeline(t *testing.T, workers int) []dataset.Example {
	t.Helper()
	ctx := context.Background()
	lib := thingpedia.Builtin()
	out := dataset.Collect(ctx, PipelineStream(ctx, lib, nltemplate.DefaultOptions, Unit, 1, workers), 0)
	if len(out) == 0 {
		t.Fatal("pipeline emitted nothing")
	}
	return out
}

// TestPipelineStreamDeterministicAcrossWorkers asserts the full streaming
// pipeline (synthesis → paraphrase simulation → PPDB → instantiation) emits
// the identical example sequence for any worker count.
func TestPipelineStreamDeterministicAcrossWorkers(t *testing.T) {
	seq := collectPipeline(t, 1)
	par := collectPipeline(t, 4)
	if len(seq) != len(par) {
		t.Fatalf("worker count changed output size: workers=1 %d vs workers=4 %d", len(seq), len(par))
	}
	paraphrases := 0
	for i := range seq {
		a := seq[i].Sentence() + "|" + seq[i].Program.String()
		b := par[i].Sentence() + "|" + par[i].Program.String()
		if a != b {
			t.Fatalf("output %d differs:\n workers=1: %s\n workers=4: %s", i, a, b)
		}
		if seq[i].Group == dataset.GroupParaphrase {
			paraphrases++
		}
	}
	// The paraphrase-simulation stage must contribute (otherwise PPDB
	// augmentation downstream is dead).
	if paraphrases == 0 {
		t.Error("pipeline emitted no paraphrase examples")
	}
}

// TestPipelineStreamCancellation asserts cancelling the context closes the
// stream promptly instead of leaking the stage goroutines.
func TestPipelineStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lib := thingpedia.Builtin()
	out := PipelineStream(ctx, lib, nltemplate.DefaultOptions, Unit, 1, 2)
	for range 5 {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-timeout:
			t.Fatal("stream did not close after cancellation")
		}
	}
}
