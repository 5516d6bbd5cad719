package nn

// Arena is a bump allocator of intermediate tensors. A graph built with
// NewGraphArena draws every intermediate from its arena; Graph.Reset (called
// between training steps) rewinds the bump pointer, so the next step carves
// its tensors out of the same memory and the steady state performs no heap
// allocation. A tensor's W and DW are carved side by side from a float slab,
// each starting on a 64-byte boundary (a slab is page-aligned), so the AVX2
// kernels' loads of a row never straddle a cache line at its start; they are
// cleared together, and the struct comes from a struct chunk.
//
// Slabs and chunks are retained across Reset and walked in order. A step
// that runs past the last slab appends one holding at least a quarter of
// what the arena has, so a fresh arena allocates little more than the
// footprint of its first step. A Reset that finds the slabs holding more than
// twice the largest step's footprint — slab ends skipped by requests that did
// not fit — drops them, and the next step starts in one slab of that
// footprint. So an arena retains about its largest step, not a freelist per
// tensor shape.
//
// Lifetime rules:
//   - Tensors obtained from an arena graph are valid only until the next
//     Reset; never retain them across steps.
//   - Parameters (weights the optimizer updates) must stay heap-owned — an
//     arena must never hand out a tensor that outlives a Reset.
//   - Only the goroutine that owns an Arena carves from it; give each
//     training goroutine its own (the parallel experiment harness trains one
//     model per job, so each model.Train call owns one arena). The helpers
//     of a split op (team.go) write disjoint rows of tensors the owner has
//     carved; the outputs of a split op are carved uncleared (Graph.newRows)
//     and each part clears its own rows, on the core that then writes them.
//
//genielint:arena-source
type Arena struct {
	slabs [][]float64 // retained float slabs, in the order a step walks them
	dirty []int       // slabs[k][:dirty[k]] may hold an earlier step's values
	total int         // floats in all slabs
	cur   int         // the slab the bump pointer is in
	fi    int         // next free float in slabs[cur]
	used  int         // floats handed out since Reset
	peak  int         // the largest step's used

	chunks [][]Tensor // retained struct chunks
	ci, si int        // current chunk, next free struct in it
}

const (
	arenaSlabFloats  = 1 << 15 // smallest slab: 256 KiB of float64
	arenaStructChunk = 256
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed rows×cols tensor.
func (a *Arena) Get(rows, cols int) *Tensor { return a.get(rows, cols, true) }

// get returns a rows×cols tensor, zeroed if zero is set: otherwise its W and
// DW may hold an earlier step's values, and the caller must clear them.
func (a *Arena) get(rows, cols int, zero bool) *Tensor {
	n := rows * cols
	w := (n + 7) &^ 7 // W and DW each start on a cache line
	buf := a.carve(2*w, zero)
	if a.si == arenaStructChunk {
		a.ci, a.si = a.ci+1, 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Tensor, arenaStructChunk))
	}
	t := &a.chunks[a.ci][a.si]
	a.si++
	t.W, t.DW = buf[:n:n], buf[w:w+n:w+n]
	t.Rows, t.Cols = rows, cols
	return t
}

// carve bumps need zeroed floats off the current slab, moving on to the next
// slab that holds them, and appending one when the retained slabs run out.
func (a *Arena) carve(need int, zero bool) []float64 {
	for a.cur < len(a.slabs) && a.fi+need > len(a.slabs[a.cur]) {
		a.dirty[a.cur] = max(a.dirty[a.cur], a.fi)
		a.cur, a.fi = a.cur+1, 0
	}
	if a.cur == len(a.slabs) {
		size := max(need, arenaSlabFloats, a.total/4)
		if a.total == 0 {
			size = max(size, a.peak)
		}
		a.slabs = append(a.slabs, make([]float64, size))
		a.dirty = append(a.dirty, 0)
		a.total += size
	}
	end := a.fi + need
	buf := a.slabs[a.cur][a.fi:end:end]
	if d := a.dirty[a.cur]; zero && a.fi < d {
		clear(buf[:min(need, d-a.fi)])
	}
	a.fi = end
	a.used += need
	return buf
}

// Reset rewinds the arena. All tensors handed out since the previous Reset
// become invalid.
func (a *Arena) Reset() {
	a.peak = max(a.peak, a.used)
	if a.total > 2*max(a.peak, arenaSlabFloats) {
		// Stale structs still point into the dropped slabs; clearing them
		// lets the collector have those.
		a.slabs, a.dirty, a.total = nil, nil, 0
		for _, c := range a.chunks {
			clear(c)
		}
	} else if a.cur < len(a.slabs) {
		a.dirty[a.cur] = max(a.dirty[a.cur], a.fi)
	}
	a.cur, a.fi, a.used = 0, 0, 0
	a.ci, a.si = 0, 0
}

// Live reports how many tensors are currently handed out (diagnostics).
func (a *Arena) Live() int { return a.ci*arenaStructChunk + a.si }
