package nn

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestArenaGetIsZeroed: a tensor is zero in W and DW however dirty the memory
// it is carved from was in an earlier step, its slices stop at its size, and
// each starts on a 64-byte boundary.
func TestArenaGetIsZeroed(t *testing.T) {
	a := NewArena()
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 50; step++ {
		for i := 0; i < 20; i++ {
			r, c := 1+rng.Intn(5), rng.Intn(40)
			x := a.Get(r, c)
			if n := r * c; n > 0 && (uintptr(unsafe.Pointer(&x.W[0]))%64 != 0 || uintptr(unsafe.Pointer(&x.DW[0]))%64 != 0) {
				t.Fatalf("Get(%d, %d): W or DW does not start on a 64-byte boundary", r, c)
			}
			if x.Rows != r || x.Cols != c || len(x.W) != r*c || len(x.DW) != r*c || cap(x.W) != r*c || cap(x.DW) != r*c {
				t.Fatalf("Get(%d, %d): %dx%d, len %d/%d, cap %d/%d", r, c, x.Rows, x.Cols, len(x.W), len(x.DW), cap(x.W), cap(x.DW))
			}
			for j := range x.W {
				if x.W[j] != 0 || x.DW[j] != 0 {
					t.Fatalf("step %d: Get(%d, %d) element %d = %g/%g, want 0", step, r, c, j, x.W[j], x.DW[j])
				}
				x.W[j], x.DW[j] = 1, -1
			}
		}
		a.Reset()
	}
}

// TestArenaLiveTensorsDisjoint: no two tensors handed out since a Reset share
// a float, across slab growth.
func TestArenaLiveTensorsDisjoint(t *testing.T) {
	a := NewArena()
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 20; step++ {
		var live []*Tensor
		for i := 0; i < 300; i++ {
			x := a.Get(1+rng.Intn(4), rng.Intn(3000))
			for j := range x.W {
				x.W[j], x.DW[j] = float64(2*i), float64(2*i+1)
			}
			live = append(live, x)
		}
		if a.Live() != len(live) {
			t.Fatalf("Live() = %d, want %d", a.Live(), len(live))
		}
		for i, x := range live {
			for j := range x.W {
				if x.W[j] != float64(2*i) || x.DW[j] != float64(2*i+1) {
					t.Fatalf("step %d: tensor %d was overwritten by a later one", step, i)
				}
			}
		}
		seen := map[*Tensor]bool{}
		for _, x := range live {
			if seen[x] {
				t.Fatalf("step %d: one tensor struct handed out twice", step)
			}
			seen[x] = true
		}
		a.Reset()
		if a.Live() != 0 {
			t.Fatalf("Live() after Reset = %d", a.Live())
		}
	}
}

// TestArenaRetainsOneStepPeak: across 1000 steps of random shapes and sizes,
// what an arena retains between steps stays within twice the largest step's
// footprint (its W and DW floats; a slab is never smaller than
// arenaSlabFloats), and once a step has run, a repeat of it allocates
// nothing.
func TestArenaRetainsOneStepPeak(t *testing.T) {
	a := NewArena()
	rng := rand.New(rand.NewSource(3))
	peak := 0
	for step := 0; step < 1000; step++ {
		footprint := 0
		for i, n := 0, rng.Intn(60); i < n; i++ {
			r, c := 1+rng.Intn(16), rng.Intn(1<<uint(rng.Intn(12)))
			a.Get(r, c)
			footprint += 2 * ((r*c + 7) &^ 7) // W and DW, each padded to a cache line
		}
		peak = max(peak, footprint)
		a.Reset()
		if a.total > 2*max(peak, arenaSlabFloats) {
			t.Fatalf("step %d: arena retains %d floats, largest step used %d", step, a.total, peak)
		}
	}
	shapes := [][2]int{{16, 500}, {1, 7}, {4, 33}, {0, 9}}
	run := func() {
		for _, s := range shapes {
			a.Get(s[0], s[1])
		}
		a.Reset()
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > 0 && !raceEnabled {
		t.Errorf("a repeated step allocates: %v allocs/run", n)
	}
}
