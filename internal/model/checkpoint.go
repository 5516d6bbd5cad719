package model

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"

	"repro/internal/nn"
)

// Training checkpoints make a mid-train kill cost at most EverySteps
// optimizer steps instead of the whole run. A checkpoint records everything
// the training loop's trajectory depends on — weights, optimizer moments,
// the Trainer's loop state (position, early-stopping state, this epoch's
// example order and batch offsets), and
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
}

// TrainResumable is Train with crash recovery: it checkpoints through
// opts.Checkpoint, resumes from a compatible checkpoint when one exists
// (logging "resuming from checkpoint" to the process logger), and stops
// early — checkpoint saved, ErrInterrupted returned — when ctx is canceled. The resumed trajectory is
// bit-identical to an uninterrupted Train with the same inputs, and the
// checkpoint is cleared once training completes.
func TrainResumable(ctx context.Context, train, val []Pair, lmPrograms [][]string, cfg Config, opts TrainOpts) (*Parser, error) {
	if opts.Checkpoint == nil {
		return Train(train, val, lmPrograms, cfg), nil
	}
	t := NewTrainer(train, lmPrograms, cfg)
	ck := &checkpointer{
		store: opts.Checkpoint,
		every: opts.EverySteps,
		fp:    trainFingerprint(t.p.cfg, train, val, lmPrograms),
	}
	if err := t.run(ctx, train, val, lmPrograms, ck, ck.resume(t)); err != nil {
		return t.p, err
	}
	if err := opts.Checkpoint.Clear(); err != nil {
		slog.Warn("model: clearing completed checkpoint", "err", err)
	}
	return t.p, nil
}

// trainCheckpoint is the in-memory form of one checkpoint. Written, its
// slices alias the live training state.
type trainCheckpoint struct {
	fingerprint [sha256.Size]byte
	loop        loopState
	weights     [][]float64 // live weights, Params() order
	adamT       int
	adamM       [][]float64
	adamV       [][]float64
	parserDraws uint64 // dropout stream position
	fitDraws    uint64 // shuffle stream position
}

// checkpointer carries the checkpoint policy through the training loop.
type checkpointer struct {
	store CheckpointStore
	every int
	fp    [sha256.Size]byte
}

// save persists t's training state (a nil checkpointer saves nothing);
// failures are logged, not fatal — losing a checkpoint must never kill the
// training run it protects.
func (ck *checkpointer) save(t *Trainer) {
	if ck == nil {
		return
	}
	c := &trainCheckpoint{
		fingerprint: ck.fp,
		loop:        t.loop,
		weights:     make([][]float64, len(t.params)),
		parserDraws: t.dropSrc.n,
		fitDraws:    t.shuffleSrc.n,
	}
	for i, p := range t.params {
		c.weights[i] = p.W
	}
	c.adamT, c.adamM, c.adamV = t.opt.State(t.params)
	err := ck.store.Save(func(w io.Writer) error { return writeCheckpoint(w, c) })
	if err != nil {
		slog.Warn("model: checkpoint save failed (training continues)", "err", err)
	}
}

// resume restores the store's checkpoint into t and reports whether it did.
// A checkpoint that is unreadable, from another recipe or data, or shaped
// for another parser is logged and training starts fresh; the last two are
// cleared (the store already quarantined what it could not read).
func (ck *checkpointer) resume(t *Trainer) bool {
	var c *trainCheckpoint
	err := ck.store.Load(func(r io.Reader) error {
		var err error
		c, err = readCheckpoint(r)
		return err
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return false
	case err != nil:
		slog.Warn("model: checkpoint unreadable; starting fresh", "err", err)
		return false
	case c.fingerprint != ck.fp:
		slog.Warn("model: checkpoint is for a different training recipe or data; starting fresh")
	default:
		if err := t.restore(c); err != nil {
			slog.Warn("model: checkpoint does not fit this run; starting fresh", "err", err)
			break
		}
		// The checkpoint's weights subsume LM pre-training (it ran before the
		// first checkpoint was written), so the run skips it.
		slog.Info("model: resuming from checkpoint", "epoch", c.loop.epoch, "batch", c.loop.pos, "step", c.loop.step)
		return true
	}
	_ = ck.store.Clear()
	return false
}

// restore installs a checkpoint as t's training state. It validates every
// shape and index before mutating anything, so a failed restore leaves t
// untrained and the caller can train fresh.
func (t *Trainer) restore(c *trainCheckpoint) error {
	params, l := t.params, &c.loop
	if len(c.weights) != len(params) {
		return fmt.Errorf("model: checkpoint holds %d tensors, parser has %d", len(c.weights), len(params))
	}
	if !fits(c.weights, params) || (l.best != nil && !fits(l.best, params)) {
		return fmt.Errorf("model: checkpoint tensor shapes differ from the parser's")
	}
	n := len(t.loop.order)
	if len(l.order) != n {
		return fmt.Errorf("model: checkpoint order covers %d examples, run has %d", len(l.order), n)
	}
	for _, idx := range [][]int{l.order, l.starts} {
		for _, i := range idx {
			if uint(i) >= uint(n) {
				return fmt.Errorf("model: checkpoint order or batch offset %d outside %d examples", i, n)
			}
		}
	}
	if l.pos < 0 {
		return fmt.Errorf("model: checkpoint batch position %d", l.pos)
	}
	if err := t.opt.Restore(params, c.adamT, c.adamM, c.adamV); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.W, c.weights[i])
	}
	t.loop = c.loop
	t.dropSrc.forwardTo(c.parserDraws)
	t.shuffleSrc.forwardTo(c.fitDraws)
	return nil
}

// fits reports whether ws holds one slice per parameter, each of its size.
func fits(ws [][]float64, params []*nn.Tensor) bool {
	if len(ws) != len(params) {
		return false
	}
	for i, p := range params {
		if len(ws[i]) != p.Size() {
			return false
		}
	}
	return true
}

// trainFingerprint hashes everything that pins a training trajectory: the
// merged config (batch size included — writeConfig predates it), and the
// full token content of the train/val/LM sets, contexts included on a
// contextual parser (a non-contextual one ignores them). A resumed run with
// any of these changed must start fresh, not splice trajectories.
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
			seqs := [][]string{pairs[i].Src, pairs[i].Tgt}
			if cfg.Contextual {
				seqs = append(seqs, pairs[i].Ctx)
			}
			writeSeqs(seqs)
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
	l := &c.loop
	bw.i64(int64(l.epoch))
	bw.i64(int64(l.pos))
	bw.bool(l.midEpoch)
	bw.i64(int64(l.step))
	bw.f64(l.bestLoss)
	bw.i64(int64(l.badEvals))
	bw.bool(l.best != nil)
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
	if l.best != nil {
		writeF64Slices(l.best)
	}
	writeF64Slices(c.weights)
	bw.i64(int64(c.adamT))
	writeF64Slices(c.adamM)
	writeF64Slices(c.adamV)
	writeIntSlice(l.order)
	writeIntSlice(l.starts)
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
	l := &c.loop
	br.bytes(c.fingerprint[:])
	l.epoch = int(br.i64())
	l.pos = int(br.i64())
	l.midEpoch = br.bool()
	l.step = int(br.i64())
	l.bestLoss = br.f64()
	l.badEvals = int(br.i64())
	haveBest := br.bool()
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
	if haveBest {
		l.best = readF64Slices()
	}
	c.weights = readF64Slices()
	c.adamT = int(br.i64())
	c.adamM = readF64Slices()
	c.adamV = readF64Slices()
	l.order = readIntSlice()
	l.starts = readIntSlice()
	c.parserDraws = br.u64()
	c.fitDraws = br.u64()
	if br.err != nil {
		return nil, fmt.Errorf("model: reading checkpoint: %w", br.err)
	}
	return c, nil
}
