package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/durable"
)

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	p := trainedToyParser()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Weights: bit-identical, tensor by tensor.
	pp, qp := p.Params(), q.Params()
	if len(pp) != len(qp) {
		t.Fatalf("param count changed: %d -> %d", len(pp), len(qp))
	}
	for i := range pp {
		if pp[i].Rows != qp[i].Rows || pp[i].Cols != qp[i].Cols {
			t.Fatalf("tensor %d shape changed: %dx%d -> %dx%d", i, pp[i].Rows, pp[i].Cols, qp[i].Rows, qp[i].Cols)
		}
		for j := range pp[i].W {
			if pp[i].W[j] != qp[i].W[j] {
				t.Fatalf("tensor %d element %d not bit-identical: %v != %v", i, j, pp[i].W[j], qp[i].W[j])
			}
		}
	}
	if p.cfg != q.cfg {
		t.Errorf("config changed: %+v -> %+v", p.cfg, q.cfg)
	}

	// Decode: identical output token-for-token, greedy and beam.
	train, val := toyPairs()
	for _, pr := range append(train, val...) {
		if a, b := strings.Join(p.Parse(pr.Src), " "), strings.Join(q.Parse(pr.Src), " "); a != b {
			t.Fatalf("Parse(%v) differs after round trip: %q != %q", pr.Src, a, b)
		}
		if a, b := strings.Join(p.ParseBeam(pr.Src, 3), " "), strings.Join(q.ParseBeam(pr.Src, 3), " "); a != b {
			t.Fatalf("ParseBeam(%v) differs after round trip: %q != %q", pr.Src, a, b)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	p := trainedToyParser()
	path := filepath.Join(t.TempDir(), "toy.parser")
	if err := p.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	q, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	src := []string{"tweet", "alpha", "now"}
	if a, b := strings.Join(p.Parse(src), " "), strings.Join(q.Parse(src), " "); a != b {
		t.Errorf("file round trip decode differs: %q != %q", a, b)
	}
}

// TestSnapshotMetaRoundTrip: the provenance block survives the round trip.
func TestSnapshotMetaRoundTrip(t *testing.T) {
	p := trainedToyParser()
	defer p.SetMeta(SnapshotMeta{}) // shared parser: restore for other tests
	meta := SnapshotMeta{LibraryChecksum: "abc123", Generation: 7, Note: "fleet:alpha"}
	p.SetMeta(meta)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta() != meta {
		t.Errorf("meta round trip = %+v, want %+v", q.Meta(), meta)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTASNAPSHOT AT ALL"))); err == nil {
		t.Error("Load accepted a non-snapshot stream")
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.Write([]byte{99, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Load of wrong version: err = %v, want version error", err)
	}
	p := trainedToyParser()
	var full bytes.Buffer
	if err := p.Save(&full); err != nil {
		t.Fatal(err)
	}
	// An older format version is rejected by name, whatever follows the
	// header: the snapshot caches retrain on it.
	v3 := append([]byte(nil), full.Bytes()...)
	v3[len(snapshotMagic)] = 3
	if _, err := Load(bytes.NewReader(v3)); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("Load of a version-3 header: err = %v, want an error naming version 3", err)
	}
	// Truncated stream.
	if _, err := Load(bytes.NewReader(full.Bytes()[:full.Len()/2])); err == nil {
		t.Error("Load accepted a truncated snapshot")
	}
	// Valid header but garbage config: must error cleanly, not allocate
	// gigabytes off a corrupt dimension.
	corrupt := append([]byte(nil), full.Bytes()...)
	const cfgOff = len(snapshotMagic) + 8 // EmbedDim is the first config field
	corrupt[cfgOff+3] = 0x40              // EmbedDim |= 1<<30
	if _, err := Load(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("Load of corrupt dimensions: err = %v, want implausible-dimension error", err)
	}
}

// TestSnapshotTruncatedVocabDoesNotPreallocate: a stream that ends right
// after a vocabulary count of 2^24 - 1 must fail on the missing tokens
// without first sizing a slice for all of them.
func TestSnapshotTruncatedVocabDoesNotPreallocate(t *testing.T) {
	var full bytes.Buffer
	if err := trainedToyParser().Save(&full); err != nil {
		t.Fatal(err)
	}
	// Find the source-vocabulary count: the first u64 equal to the vocab size.
	srcSize, _ := trainedToyParser().VocabSizes()
	var want [8]byte
	binary.LittleEndian.PutUint64(want[:], uint64(srcSize))
	off := bytes.Index(full.Bytes(), append(want[:], 5, 0, 0, 0, 0, 0, 0, 0, '<', 'u', 'n', 'k', '>'))
	if off < 0 {
		t.Fatal("source vocabulary header not found in the snapshot")
	}
	stream := append([]byte(nil), full.Bytes()[:off+8]...)
	binary.LittleEndian.PutUint64(stream[off:], 1<<24-1)
	stream = append(stream, full.Bytes()[off+8:off+8+13]...) // one token, then EOF

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("Load of a truncated vocabulary: err = %v, want an EOF error", err)
	}
	// make([]string, 1<<24) is 256 MiB; reading one token costs kilobytes.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("Load allocated %d MiB for a 13-byte vocabulary", grew>>20)
	}
}

// TestSnapshotTruncatedWeightsDoNotPreallocate: a stream whose header names a
// 512-wide parser but which ends three floats into its first tensor must fail
// on the missing data without first building the parser its header
// describes (about 160 MiB of weights and gradients at that width).
func TestSnapshotTruncatedWeightsDoNotPreallocate(t *testing.T) {
	p := trainedToyParser()
	var full bytes.Buffer
	if err := p.Save(&full); err != nil {
		t.Fatal(err)
	}
	// The weights section is the tensor count, then rows, cols and data per
	// tensor; everything before it is kept.
	weights := 8
	for _, w := range p.Params() {
		weights += 16 + 8*w.Size()
	}
	stream := append([]byte(nil), full.Bytes()[:full.Len()-weights]...)
	const dim = 512
	const cfgOff = len(snapshotMagic) + 8 // EmbedDim, then HiddenDim
	binary.LittleEndian.PutUint64(stream[cfgOff:], dim)
	binary.LittleEndian.PutUint64(stream[cfgOff+8:], dim)
	srcSize, _ := p.VocabSizes()
	for _, v := range []uint64{uint64(len(p.Params())), uint64(srcSize), dim} {
		stream = binary.LittleEndian.AppendUint64(stream, v)
	}
	stream = append(stream, make([]byte, 3*8)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("Load of truncated weights: err = %v, want an EOF error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("Load allocated %d MiB for a %d-byte snapshot", grew>>20, len(stream))
	}
}

// FuzzSnapshotLoad: Load returns a parser or an error on any byte stream, and
// never panics. The seeds are small plain and contextual snapshots (one with
// a grammar spec), their truncations, and mutations of their header fields:
//
//	go test ./internal/model -run '^$' -fuzz FuzzSnapshotLoad -fuzztime 10s
func FuzzSnapshotLoad(f *testing.F) {
	for _, full := range fuzzSnapshots(f) {
		f.Add(full)
		for _, n := range []int{8, 17, 40, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
			f.Add(full[:n])
		}
		const cfgOff = len(snapshotMagic) + 8
		for _, m := range []struct {
			off int
			v   uint64
		}{
			{len(snapshotMagic), 3},         // an older version
			{cfgOff, 2048},                  // EmbedDim
			{cfgOff + 8, 0},                 // HiddenDim
			{cfgOff + 8, 1 << 40},           // HiddenDim
			{len(full) - 8, math.MaxUint64}, // the last weight's bits
		} {
			mut := append([]byte(nil), full...)
			binary.LittleEndian.PutUint64(mut[m.off:], m.v)
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if (p == nil) == (err == nil) {
			t.Fatalf("Load returned parser %v and error %v", p != nil, err)
		}
	})
}

// fuzzSnapshots returns the fuzzers' seed snapshots: a small plain parser and
// a small contextual one with a grammar spec.
func fuzzSnapshots(f *testing.F) [][]byte {
	vocab := func(words ...string) *Vocab { return BuildVocab([][]string{words}, 1) }
	src := vocab("tweet", "alpha", "now", "email")
	tgt := vocab("now", "=>", "@twitter.post", "@gmail.send", "param:text", "=", `"`)
	var out [][]byte
	for _, contextual := range []bool{false, true} {
		p := newParser(Config{EmbedDim: 4, HiddenDim: 3, MaxDecodeLen: 8, PointerGen: true, Contextual: contextual, Seed: 1}, src, tgt, rand.New(rand.NewSource(1)))
		if contextual {
			_ = p.SetGrammar(toyGrammarSpec())
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzDurableLoad loads a snapshot the way serve.Cache does — model.Load as
// the read callback of a durable.Store — from a store whose only generation
// of key "k" is the fuzzed bytes: written as the file k.g1 as they are, or,
// when sealed, as the payload of an envelope the store writes itself, so the
// checksum passes and model.Load sees them. The load returns a parser or an
// error and never panics; a generation that fails is quarantined to
// k.g1.corrupt, and the next Load reports ErrNotFound. The seeds are a valid
// envelope, its truncations, mutations of its header and trailer, and sealed
// snapshots with their truncations:
//
//	go test ./internal/model -run '^$' -fuzz FuzzDurableLoad -fuzztime 10s
func FuzzDurableLoad(f *testing.F) {
	for _, snap := range fuzzSnapshots(f) {
		f.Add(snap, true)
		f.Add(snap[:len(snap)/2], true)
		dir := f.TempDir()
		if err := durable.Open(dir, durable.Options{}).Save("k", func(w io.Writer) error {
			_, err := w.Write(snap)
			return err
		}); err != nil {
			f.Fatal(err)
		}
		env, err := os.ReadFile(filepath.Join(dir, "k.g1"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env, false)
		for _, n := range []int{0, 8, 12, 51, 52, len(env) / 2, len(env) - 41, len(env) - 40, len(env) - 1} {
			f.Add(env[:n], false)
		}
		payloadLen := uint64(len(env) - 52) // 12-byte header, 40-byte trailer
		for _, m := range []struct {
			off int
			v   uint64
		}{
			{0, 0},                             // magic
			{8, 2},                             // envelope version
			{len(env) - 40, payloadLen - 1},    // trailer length, one short
			{len(env) - 40, payloadLen + 1},    // trailer length, one long
			{len(env) - 40, math.MaxUint64},    // trailer length
			{len(env) - 8, 0x0123456789abcdef}, // checksum
			{len(env) / 2, 0xdeadbeefdeadbeef}, // payload
		} {
			mut := append([]byte(nil), env...)
			binary.LittleEndian.PutUint64(mut[m.off:], m.v)
			f.Add(mut, false)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		dir := t.TempDir()
		s := durable.Open(dir, durable.Options{})
		if sealed {
			if err := s.Save("k", func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(filepath.Join(dir, "k.g1"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		load := func() (p *Parser, err error) {
			err = s.Load("k", func(r io.Reader) error {
				p, err = Load(r)
				return err
			})
			return p, err
		}
		p, err := load()
		if (p == nil) == (err == nil) {
			t.Fatalf("Load returned parser %v and error %v", p != nil, err)
		}
		if err == nil {
			return
		}
		if _, serr := os.Stat(filepath.Join(dir, "k.g1.corrupt")); serr != nil {
			t.Fatalf("failed generation (%v) not quarantined: %v", err, serr)
		}
		if _, err := load(); !errors.Is(err, durable.ErrNotFound) {
			t.Fatalf("Load after quarantine = %v, want ErrNotFound", err)
		}
	})
}
