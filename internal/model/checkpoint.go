package model

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"

	"repro/internal/nn"
)

// Training checkpoints make a mid-train kill cost at most EverySteps
// optimizer steps instead of the whole run. A checkpoint records everything
// the fit loop's trajectory depends on — weights, optimizer moments,
// early-stopping state, this epoch's example order and batch offsets, and
// the *positions of both RNG streams* — so a resumed run replays the exact
// value sequence the uninterrupted run would have consumed and lands on
// bit-identical weights.
//
//	magic       "GENIECKP" (8 bytes)
//	version     uint64 (currently 1)
//	fingerprint sha256 over config + training data (mismatch = stale)
//	state       epoch, pos, step, bestLoss, badEvals, best (optional),
//	            weights, Adam t/m/v, order, starts, RNG draw counts
//
// A checkpoint is taken *before* batch pos of epoch: pos 0 means before the
// epoch's shuffle, so resuming replays the shuffle draws themselves.
const (
	checkpointMagic   = "GENIECKP"
	checkpointVersion = 1
)

// ErrInterrupted reports that TrainResumable stopped on context
// cancellation after saving a checkpoint; calling it again with the same
// inputs resumes where it left off.
var ErrInterrupted = errors.New("model: training interrupted")

// CheckpointStore is the persistence surface TrainResumable writes epoch
// checkpoints through; durable.(*KeyStore) satisfies it. Load must return an
// error wrapping fs.ErrNotExist when no checkpoint exists.
type CheckpointStore interface {
	Save(write func(w io.Writer) error) error
	Load(read func(r io.Reader) error) error
	Clear() error
}

// TrainOpts configure resumable training.
type TrainOpts struct {
	// Checkpoint is where epoch checkpoints go; nil trains exactly like
	// Train (no checkpointing).
	Checkpoint CheckpointStore
	// EverySteps is the mid-epoch checkpoint cadence in optimizer steps
	// (0 = checkpoint only at epoch boundaries).
	EverySteps int
	// Logf receives resume/mismatch/save-failure events (nil discards).
	Logf func(format string, args ...any)
}

// TrainResumable is Train with crash recovery: it checkpoints through
// opts.Checkpoint, resumes from a compatible checkpoint when one exists
// (logging "resuming from checkpoint"), and stops early — checkpoint saved,
// ErrInterrupted returned — when ctx is canceled. The resumed trajectory is
// bit-identical to an uninterrupted Train with the same inputs, and the
// checkpoint is cleared once training completes.
func TrainResumable(ctx context.Context, train, val []Pair, lmPrograms [][]string, cfg Config, opts TrainOpts) (*Parser, error) {
	if opts.Checkpoint == nil {
		return Train(train, val, lmPrograms, cfg), nil
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := buildParser(train, lmPrograms, cfg)
	ck := &checkpointer{
		store: opts.Checkpoint,
		every: opts.EverySteps,
		fp:    trainFingerprint(p.cfg, train, val, lmPrograms),
		logf:  logf,
	}

	var resume *trainCheckpoint
	err := opts.Checkpoint.Load(func(r io.Reader) error {
		c, err := readCheckpoint(r)
		if err != nil {
			return err
		}
		resume = c
		return nil
	})
	switch {
	case err == nil:
		if resume.fingerprint != ck.fp {
			logf("model: checkpoint is for a different training recipe or data; starting fresh")
			resume = nil
			_ = opts.Checkpoint.Clear()
		}
	case errors.Is(err, fs.ErrNotExist):
		// No checkpoint: a fresh run.
	default:
		// The store already quarantined what it could; an unreadable
		// checkpoint just means training starts over.
		logf("model: checkpoint unreadable (%v); starting fresh", err)
		resume = nil
	}

	if resume == nil {
		if p.cfg.PretrainLM && len(lmPrograms) > 0 {
			p.pretrainLM(lmPrograms)
		}
	} else {
		// The checkpoint's weights subsume LM pre-training (it ran before the
		// first checkpoint was written), so resume skips straight to fit.
		logf("model: resuming from checkpoint (epoch %d, batch %d, step %d)", resume.epoch, resume.pos, resume.step)
	}
	if err := p.fitRun(ctx, train, val, ck, resume); err != nil {
		return p, err
	}
	if err := opts.Checkpoint.Clear(); err != nil {
		logf("model: clearing completed checkpoint: %v", err)
	}
	return p, nil
}

// trainCheckpoint is the in-memory form of one checkpoint.
type trainCheckpoint struct {
	fingerprint [sha256.Size]byte
	epoch       int  // resume epoch
	pos         int  // resume batch offset into starts
	midEpoch    bool // true: order/starts already drawn, skip the shuffle on resume
	step        int  // optimizer steps taken
	bestLoss    float64
	badEvals    int
	haveBest    bool
	best        [][]float64 // early-stopping weight snapshot (haveBest)
	weights     [][]float64 // live weights, Params() order
	adamT       int
	adamM       [][]float64
	adamV       [][]float64
	order       []int
	starts      []int
	parserDraws uint64 // parser RNG (dropout) stream position
	fitDraws    uint64 // fit RNG (shuffle/bucketing) stream position
}

// checkpointer carries the checkpoint policy through the fit loop.
type checkpointer struct {
	store CheckpointStore
	every int
	fp    [sha256.Size]byte
	logf  func(format string, args ...any)
}

// save persists one checkpoint; failures are logged, not fatal — losing a
// checkpoint must never kill the training run it protects.
func (ck *checkpointer) save(c *trainCheckpoint) {
	c.fingerprint = ck.fp
	err := ck.store.Save(func(w io.Writer) error { return writeCheckpoint(w, c) })
	if err != nil {
		ck.logf("model: checkpoint save failed (training continues): %v", err)
	}
}

// capture assembles a checkpoint for "before batch pos of epoch". midEpoch
// records whether this epoch's shuffle and batch offsets have already been
// drawn (so resume must reuse them) or the checkpoint sits before the
// shuffle (so resume replays it).
func captureCheckpoint(p *Parser, opt *nn.Adam, params []*nn.Tensor, fitSrc *countingSource,
	epoch, pos int, midEpoch bool, step int, bestLoss float64, badEvals int, best [][]float64, order, starts []int) *trainCheckpoint {
	c := &trainCheckpoint{
		epoch:       epoch,
		pos:         pos,
		midEpoch:    midEpoch,
		step:        step,
		bestLoss:    bestLoss,
		badEvals:    badEvals,
		haveBest:    best != nil,
		order:       append([]int(nil), order...),
		starts:      append([]int(nil), starts...),
		parserDraws: p.rngSrc.n,
		fitDraws:    fitSrc.n,
	}
	if best != nil {
		c.best = copySlices(best)
	}
	c.weights = make([][]float64, len(params))
	for i, t := range params {
		c.weights[i] = append([]float64(nil), t.W...)
	}
	c.adamT, c.adamM, c.adamV = opt.State(params)
	return c
}

// apply restores a checkpoint into the live training state. It validates
// every shape before mutating anything, so a failed apply leaves the parser
// untrained and the caller can fall back to a fresh run.
func (c *trainCheckpoint) apply(p *Parser, opt *nn.Adam, params []*nn.Tensor, fitSrc *countingSource, order []int) error {
	if len(c.weights) != len(params) {
		return fmt.Errorf("model: checkpoint holds %d tensors, parser has %d", len(c.weights), len(params))
	}
	for i, t := range params {
		if len(c.weights[i]) != t.Size() {
			return fmt.Errorf("model: checkpoint tensor %d has %d values, parser wants %d", i, len(c.weights[i]), t.Size())
		}
	}
	if c.haveBest {
		if len(c.best) != len(params) {
			return fmt.Errorf("model: checkpoint best snapshot shape mismatch")
		}
		for i, t := range params {
			if len(c.best[i]) != t.Size() {
				return fmt.Errorf("model: checkpoint best snapshot shape mismatch")
			}
		}
	}
	if len(c.order) != len(order) {
		return fmt.Errorf("model: checkpoint order covers %d examples, run has %d", len(c.order), len(order))
	}
	if err := opt.Restore(params, c.adamT, c.adamM, c.adamV); err != nil {
		return err
	}
	for i, t := range params {
		copy(t.W, c.weights[i])
	}
	copy(order, c.order)
	p.rngSrc.forwardTo(c.parserDraws)
	fitSrc.forwardTo(c.fitDraws)
	return nil
}

func copySlices(ss [][]float64) [][]float64 {
	out := make([][]float64, len(ss))
	for i, s := range ss {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

// trainFingerprint hashes everything that pins a training trajectory: the
// merged config (batch size included — writeConfig predates it), and the
// full token content of the train/val/LM sets. A resumed run with any of
// these changed must start fresh, not splice trajectories.
func trainFingerprint(cfg Config, train, val []Pair, lmPrograms [][]string) [sha256.Size]byte {
	h := sha256.New()
	bw := &binWriter{w: bufio.NewWriter(h)}
	writeConfig(bw, cfg)
	bw.i64(int64(cfg.BatchSize))
	writeSeqs := func(seqs [][]string) {
		bw.u64(uint64(len(seqs)))
		for _, seq := range seqs {
			bw.u64(uint64(len(seq)))
			for _, tok := range seq {
				bw.str(tok)
			}
		}
	}
	writePairs := func(pairs []Pair) {
		bw.u64(uint64(len(pairs)))
		for i := range pairs {
			writeSeqs([][]string{pairs[i].Src, pairs[i].Tgt})
		}
	}
	writePairs(train)
	writePairs(val)
	writeSeqs(lmPrograms)
	_ = bw.w.Flush()
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

func writeCheckpoint(w io.Writer, c *trainCheckpoint) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.bytes([]byte(checkpointMagic))
	bw.u64(checkpointVersion)
	bw.bytes(c.fingerprint[:])
	bw.i64(int64(c.epoch))
	bw.i64(int64(c.pos))
	bw.bool(c.midEpoch)
	bw.i64(int64(c.step))
	bw.f64(c.bestLoss)
	bw.i64(int64(c.badEvals))
	bw.bool(c.haveBest)
	writeF64Slices := func(ss [][]float64) {
		bw.u64(uint64(len(ss)))
		for _, s := range ss {
			bw.u64(uint64(len(s)))
			for _, v := range s {
				bw.u64(math.Float64bits(v))
			}
		}
	}
	writeIntSlice := func(s []int) {
		bw.u64(uint64(len(s)))
		for _, v := range s {
			bw.i64(int64(v))
		}
	}
	if c.haveBest {
		writeF64Slices(c.best)
	}
	writeF64Slices(c.weights)
	bw.i64(int64(c.adamT))
	writeF64Slices(c.adamM)
	writeF64Slices(c.adamV)
	writeIntSlice(c.order)
	writeIntSlice(c.starts)
	bw.u64(c.parserDraws)
	bw.u64(c.fitDraws)
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

func readCheckpoint(r io.Reader) (*trainCheckpoint, error) {
	br := &binReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(checkpointMagic))
	br.bytes(magic)
	if br.err != nil {
		return nil, fmt.Errorf("model: reading checkpoint header: %w", br.err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("model: not a training checkpoint (magic %q)", magic)
	}
	if v := br.u64(); v != checkpointVersion {
		return nil, fmt.Errorf("model: unsupported checkpoint version %d", v)
	}
	c := &trainCheckpoint{}
	br.bytes(c.fingerprint[:])
	c.epoch = int(br.i64())
	c.pos = int(br.i64())
	c.midEpoch = br.bool()
	c.step = int(br.i64())
	c.bestLoss = br.f64()
	c.badEvals = int(br.i64())
	c.haveBest = br.bool()
	// Every slice grows as its elements arrive, never sized from a header
	// count: a truncated or corrupt stream costs what it actually holds.
	readF64Slices := func() [][]float64 {
		var out [][]float64
		for n := br.u64(); n > 0 && br.err == nil; n-- {
			out = append(out, br.f64s(br.u64()))
		}
		return out
	}
	readIntSlice := func() []int {
		var out []int
		for n := br.u64(); n > 0 && br.err == nil; n-- {
			out = append(out, int(br.i64()))
		}
		return out
	}
	if c.haveBest {
		c.best = readF64Slices()
	}
	c.weights = readF64Slices()
	c.adamT = int(br.i64())
	c.adamM = readF64Slices()
	c.adamV = readF64Slices()
	c.order = readIntSlice()
	c.starts = readIntSlice()
	c.parserDraws = br.u64()
	c.fitDraws = br.u64()
	if br.err != nil {
		return nil, fmt.Errorf("model: reading checkpoint: %w", br.err)
	}
	return c, nil
}
