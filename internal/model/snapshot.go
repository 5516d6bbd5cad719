package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/grammar"
)

// Snapshot format: a versioned little-endian binary stream holding the full
// trained parser — config, both vocabularies, and every weight tensor in
// Params() order. Weights are written as raw IEEE-754 bits, so a save/load
// round trip is bit-identical and a loaded parser decodes exactly like the
// one that was saved. The serving layer (internal/serve) builds its
// skill-library cache on top of these snapshots.
//
//	magic   "GENIEPSR" (8 bytes)
//	version uint64 (4; Load reads no other — an older file is an error, and
//	        the snapshot caches retrain on it like on any unreadable file)
//	config  fixed field order (ints as int64, floats as bits, bools as u8)
//	meta    library checksum, generation, note
//	grammar calibration fitted flag + threshold, grammar spec JSON (empty
//	        when the parser decodes unmasked), spec checksum
//	vocabs  source then target: count, then length-prefixed tokens
//	params  count, then per tensor: rows, cols, rows*cols float64 bits;
//	        contextual parsers append the context-encoder tensors after the
//	        base Params() order (paramShapes derives them from the
//	        Contextual config bit, so the count check covers them)
const (
	snapshotMagic   = "GENIEPSR"
	snapshotVersion = 4
)

// SnapshotMeta is the provenance block of a snapshot: which skill library
// the parser was trained for (thingpedia.Library.Checksum), the fleet
// generation that produced it, and a free-form note. The fleet control
// plane stamps it before saving so a reloaded snapshot can be matched to
// its library without retraining and surfaced in /skills.
type SnapshotMeta struct {
	LibraryChecksum string
	Generation      uint64
	Note            string
}

// Meta returns the snapshot provenance metadata (zero for parsers trained
// locally).
func (p *Parser) Meta() SnapshotMeta { return p.meta }

// SetMeta stamps the provenance metadata carried by subsequent Save calls.
func (p *Parser) SetMeta(m SnapshotMeta) { p.meta = m }

// Save writes the parser snapshot to w.
func (p *Parser) Save(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.bytes([]byte(snapshotMagic))
	bw.u64(snapshotVersion)
	writeConfig(bw, p.cfg)
	bw.str(p.meta.LibraryChecksum)
	bw.u64(p.meta.Generation)
	bw.str(p.meta.Note)
	bw.bool(p.calib.Fitted)
	bw.f64(p.calib.Threshold)
	specJSON, checksum := "", ""
	if p.gspec != nil {
		data, err := p.gspec.Marshal()
		if err != nil {
			return fmt.Errorf("model: marshaling grammar spec: %w", err)
		}
		specJSON, checksum = string(data), p.gspec.Checksum()
	}
	bw.str(specJSON)
	bw.str(checksum)
	writeVocab(bw, p.src)
	writeVocab(bw, p.tgt)
	params := p.Params()
	bw.u64(uint64(len(params)))
	for _, t := range params {
		bw.u64(uint64(t.Rows))
		bw.u64(uint64(t.Cols))
		for _, v := range t.W {
			bw.u64(math.Float64bits(v))
		}
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// Load reads a snapshot written by Save and reconstructs the parser. The
// loaded parser is immediately servable: Parse output is bit-identical to
// the saved parser's.
func Load(r io.Reader) (*Parser, error) {
	br := &binReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(snapshotMagic))
	br.bytes(magic)
	if br.err != nil {
		return nil, fmt.Errorf("model: reading snapshot header: %w", br.err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("model: not a parser snapshot (magic %q)", magic)
	}
	if version := br.u64(); br.err == nil && version != snapshotVersion {
		return nil, fmt.Errorf("model: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	cfg := readConfig(br)
	meta := SnapshotMeta{LibraryChecksum: br.str(), Generation: br.u64(), Note: br.str()}
	calib := Calibration{Fitted: br.bool(), Threshold: br.f64()}
	specJSON, specChecksum := br.str(), br.str()
	src := readVocab(br)
	tgt := readVocab(br)
	if br.err != nil {
		return nil, fmt.Errorf("model: reading snapshot: %w", br.err)
	}
	// Bound the dimensions before any shape is computed from them: a corrupt
	// stream with a valid header must fail cleanly, not overflow a size.
	const maxDim = 1 << 16
	if cfg.EmbedDim <= 0 || cfg.EmbedDim > maxDim || cfg.HiddenDim <= 0 || cfg.HiddenDim > maxDim {
		return nil, fmt.Errorf("model: implausible snapshot dimensions embed=%d hidden=%d", cfg.EmbedDim, cfg.HiddenDim)
	}
	if src.Size() < 3 || tgt.Size() < 3 { // <unk>, <s>, </s> at minimum
		return nil, fmt.Errorf("model: snapshot vocabularies too small (%d src, %d tgt)", src.Size(), tgt.Size())
	}
	var spec *grammar.Spec
	if specJSON != "" {
		var err error
		if spec, err = grammar.UnmarshalSpec([]byte(specJSON)); err != nil {
			return nil, fmt.Errorf("model: reading snapshot grammar spec: %w", err)
		}
		// The checksum pins the automaton the parser was calibrated with; a
		// mismatch means the stream was corrupted or tampered with.
		if got := spec.Checksum(); got != specChecksum {
			return nil, fmt.Errorf("model: snapshot grammar checksum mismatch (stored %s, computed %s)", specChecksum, got)
		}
	}
	// The weights are read before the parser is built, each tensor grown as
	// its data arrives (readVocab's rule): a truncated or corrupt stream costs
	// what it holds, not the parser its header describes.
	shapes := paramShapes(cfg, src.Size(), tgt.Size())
	if n := br.u64(); br.err == nil && n != uint64(len(shapes)) {
		return nil, fmt.Errorf("model: snapshot holds %d tensors, parser has %d", n, len(shapes))
	}
	weights := make([][]float64, len(shapes))
	for i, sh := range shapes {
		rows, cols := br.u64(), br.u64()
		if br.err != nil {
			return nil, fmt.Errorf("model: reading tensor %d: %w", i, br.err)
		}
		if rows != uint64(sh[0]) || cols != uint64(sh[1]) {
			return nil, fmt.Errorf("model: tensor %d is %dx%d in snapshot, %dx%d in parser", i, rows, cols, sh[0], sh[1])
		}
		weights[i] = br.f64s(rows * cols)
	}
	if br.err != nil {
		return nil, fmt.Errorf("model: reading snapshot weights: %w", br.err)
	}
	p := newParser(cfg, src, tgt, rand.New(rand.NewSource(cfg.Seed)))
	for i, t := range p.Params() {
		copy(t.W, weights[i])
	}
	p.meta = meta
	p.calib = calib
	if spec != nil {
		// A compile failure is non-fatal: the spec is kept for provenance and
		// the parser decodes unmasked (the automaton is a constraint, not a
		// requirement, and older vocabularies may not cover the library).
		_ = p.SetGrammar(spec)
	}
	return p, nil
}

// paramShapes lists the rows×cols of every Params() tensor of a parser with
// this config and these vocabulary sizes, in order: what newParser allocates,
// known before it does.
func paramShapes(cfg Config, srcSize, tgtSize int) [][2]int {
	e, h := cfg.EmbedDim, cfg.HiddenDim
	var s [][2]int
	emb := func(rows int) { s = append(s, [2]int{rows, e}) }
	lstm := func(in int) { s = append(s, [2]int{in, 4 * h}, [2]int{h, 4 * h}, [2]int{1, 4 * h}) }
	lin := func(in, out int) { s = append(s, [2]int{in, out}, [2]int{1, out}) }
	emb(srcSize) // encEmb
	lstm(e)      // fwd
	lstm(e)      // bwd
	emb(tgtSize) // decEmb
	lstm(e + 2*h)
	lin(2*h, h)     // initLin
	lin(h, 2*h)     // attnLin
	lin(3*h, h)     // combLin
	lin(h, tgtSize) // outLin
	lin(h, 1)       // gateLin
	if cfg.Contextual {
		lstm(e)     // ctxCell
		lin(h, h)   // ctxAttnLin
		lin(2*h, h) // ctxCombLin
		lin(h, 1)   // ctxGateLin
	}
	return s
}

// SaveFile writes the snapshot atomically: to a temp file in the target
// directory, then renamed into place, so a concurrent LoadFile never sees a
// half-written snapshot.
func (p *Parser) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := p.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a snapshot from disk.
func LoadFile(path string) (*Parser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func writeConfig(bw *binWriter, c Config) {
	bw.i64(int64(c.EmbedDim))
	bw.i64(int64(c.HiddenDim))
	bw.f64(c.LR)
	bw.f64(c.Dropout)
	bw.i64(int64(c.Epochs))
	bw.i64(int64(c.MaxSteps))
	bw.i64(int64(c.EvalEvery))
	bw.i64(int64(c.Patience))
	bw.bool(c.PointerGen)
	bw.bool(c.PretrainLM)
	bw.i64(int64(c.LMSteps))
	bw.i64(int64(c.MaxDecodeLen))
	bw.i64(int64(c.MinVocabCount))
	bw.i64(c.Seed)
	bw.bool(c.BucketByLength)
	bw.bool(c.Contextual)
}

func readConfig(br *binReader) Config {
	var c Config
	c.EmbedDim = int(br.i64())
	c.HiddenDim = int(br.i64())
	c.LR = br.f64()
	c.Dropout = br.f64()
	c.Epochs = int(br.i64())
	c.MaxSteps = int(br.i64())
	c.EvalEvery = int(br.i64())
	c.Patience = int(br.i64())
	c.PointerGen = br.bool()
	c.PretrainLM = br.bool()
	c.LMSteps = int(br.i64())
	c.MaxDecodeLen = int(br.i64())
	c.MinVocabCount = int(br.i64())
	c.Seed = br.i64()
	c.BucketByLength = br.bool()
	c.Contextual = br.bool()
	return c
}

func writeVocab(bw *binWriter, v *Vocab) {
	bw.u64(uint64(len(v.tokens)))
	for _, tok := range v.tokens {
		bw.str(tok)
	}
}

func readVocab(br *binReader) *Vocab {
	n := br.u64()
	if br.err != nil {
		return newVocabFromTokens(nil)
	}
	const maxVocab = 1 << 24 // sanity bound against corrupt headers
	if n > maxVocab {
		br.err = fmt.Errorf("implausible vocabulary size %d", n)
		return newVocabFromTokens(nil)
	}
	// Grown as tokens arrive, not sized from the header: a truncated or
	// corrupt stream costs what it actually holds.
	var tokens []string
	for i := uint64(0); i < n && br.err == nil; i++ {
		tokens = append(tokens, br.str())
	}
	return newVocabFromTokens(tokens)
}

// binWriter/binReader carry the first error so call sites stay linear.
type binWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (b *binWriter) bytes(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

func (b *binWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.bytes(b.buf[:])
}

func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) bool(v bool) {
	if v {
		b.bytes([]byte{1})
	} else {
		b.bytes([]byte{0})
	}
}

func (b *binWriter) str(s string) {
	b.u64(uint64(len(s)))
	b.bytes([]byte(s))
}

type binReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (b *binReader) bytes(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = io.ReadFull(b.r, p)
}

func (b *binReader) u64() uint64 {
	b.bytes(b.buf[:])
	if b.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:])
}

func (b *binReader) i64() int64   { return int64(b.u64()) }
func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }

// f64s reads n float64s into a slice grown as they arrive, not sized from n:
// a truncated or corrupt stream costs what it actually holds.
func (b *binReader) f64s(n uint64) []float64 {
	var out []float64
	for ; n > 0 && b.err == nil; n-- {
		out = append(out, b.f64())
	}
	return out
}

func (b *binReader) bool() bool {
	var one [1]byte
	b.bytes(one[:])
	return one[0] != 0
}

func (b *binReader) str() string {
	n := b.u64()
	if b.err != nil {
		return ""
	}
	const maxToken = 1 << 20
	if n > maxToken {
		b.err = fmt.Errorf("implausible token length %d", n)
		return ""
	}
	p := make([]byte, n)
	b.bytes(p)
	return string(p)
}

// Dims reports the embedding and hidden sizes (diagnostics and serving
// logs).
func (p *Parser) Dims() (embed, hidden int) { return p.cfg.EmbedDim, p.cfg.HiddenDim }

// VocabSizes reports source and target vocabulary sizes.
func (p *Parser) VocabSizes() (src, tgt int) { return p.src.Size(), p.tgt.Size() }
