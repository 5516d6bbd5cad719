package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the package's one fork–join: a gradient-recording graph hands
// the upper part of a row-split op to a helper goroutine and runs the lower
// part itself. The split points are in kernel.go's header; each part writes
// rows of tensors no other part touches and reads only what neither writes,
// so every output element sees the operations it sees on one goroutine, in
// the same order, and the bits do not depend on who ran which part.
//
// The team is process-wide: GOMAXPROCS−1 helpers, started the first time a
// graph splits an op with that many processors, one slot each. Hand-off is
// the slot's state word; nothing is allocated or spawned per op:
//
//	free ──post──▶ owned ──▶ posted ──helper──▶ running ──▶ done ──join──▶ free
//	                            └──────────claim back──▶ owned ──▶ free
//
// A caller that finds no free slot runs the whole op itself, so two trainers
// competing for one helper degrade to the serial path. A caller that finishes
// its part before a helper has claimed the rest claims it back and runs it,
// so it never waits for a helper the scheduler has not run. Between jobs a
// helper spins for helperSpin, yielding, then parks until the next post.

// A job is one split op: run(j, from, to) does the op's share between cut
// points from and to — (0, 1) is the lower part, (1, 2) the upper, (0, 2) the
// whole op. A graph owns one and refills it for every op it splits.
type job struct {
	run  func(j *job, from, to int)
	rcut [3]int // rows: the lower part is [rcut[0], rcut[1]), the upper [rcut[1], rcut[2])
	kcut [3]int // the backward product's weight-gradient rows, cut the same way

	o   *tapeOp // the op's record on the tape (LSTM step, attention, softmax)
	pre *Tensor // the LSTM step's gate pre-activations

	// A product out = a·w of a batch of rows×in with an in×n matrix, and
	// its gradients.
	out          *Tensor
	a, w         []float64
	ad, wd, dOut []float64
	in, n        int
	active       []bool
}

const (
	slotFree int32 = iota
	slotOwned
	slotPosted
	slotRunning
	slotDone
)

// helperSpin is how long a helper keeps looking for work after a job before
// it parks: longer than the gap between two ops of a training step, shorter
// than anything a person would notice a spare core spinning for. A spinning
// helper, and a caller waiting for one, yields its processor every spinYield
// looks, so whatever else is runnable there still runs.
const (
	helperSpin = 200 * time.Microsecond
	spinYield  = 4096
)

// A slot is one helper's mailbox.
type slot struct {
	state  atomic.Int32
	asleep atomic.Bool   // the helper is parked, or about to park, on wake
	wake   chan struct{} // a post's token to a parked helper (buffered, 1)
	j      *job          // the posted job; written by its owner before posted
	failed any           // a panic of the job's upper part, re-raised on the caller
	_      [64]byte      // keep neighbouring slots off this cache line
}

type team struct {
	mu    sync.Mutex // serialises growth
	slots atomic.Pointer[[]*slot]

	posted, reclaimed atomic.Int64 // jobs posted; jobs their caller claimed back
}

var helpers team

// forceClaimBack makes helpers leave every posted job alone, so every caller
// claims its upper part back (a test hook).
var forceClaimBack atomic.Bool

// splits reports whether an op over rows rows is split: on a graph that
// records gradients, over two rows or more, with a second processor.
func (g *Graph) splits(rows int) bool { return g.NeedsGrad && rows >= 2 && g.procs >= 2 }

// fork runs j: the upper part on a helper where one is free and takes it in
// time, the lower part on the calling goroutine; or the whole op here when
// either part is empty, or when there is no free helper.
func (g *Graph) fork(j *job) {
	if j.rcut[1] == j.rcut[0] && j.kcut[1] == j.kcut[0] ||
		j.rcut[2] == j.rcut[1] && j.kcut[2] == j.kcut[1] {
		j.run(j, 0, 2)
		return
	}
	sl := helpers.post(j, g.procs)
	if sl == nil {
		j.run(j, 0, 2)
		return
	}
	j.run(j, 0, 1)
	if sl.state.CompareAndSwap(slotPosted, slotOwned) {
		helpers.reclaimed.Add(1)
		sl.j = nil
		sl.state.Store(slotFree)
		j.run(j, 1, 2)
		return
	}
	for i := 1; sl.state.Load() != slotDone; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	failed := sl.failed
	sl.j, sl.failed = nil, nil
	sl.state.Store(slotFree)
	if failed != nil {
		panic(failed)
	}
}

// post hands j's upper part to a free helper, starting helpers first until
// there are procs−1, and returns its slot; or nil when every helper is taken.
func (t *team) post(j *job, procs int) *slot {
	slots := t.slots.Load()
	if slots == nil || len(*slots) < procs-1 {
		slots = t.grow(procs - 1)
	}
	for _, sl := range *slots {
		if sl.state.Load() != slotFree || !sl.state.CompareAndSwap(slotFree, slotOwned) {
			continue
		}
		sl.j = j
		t.posted.Add(1)
		sl.state.Store(slotPosted)
		if sl.asleep.Load() && sl.asleep.CompareAndSwap(true, false) {
			sl.wake <- struct{}{}
		}
		return sl
	}
	return nil
}

// grow starts helpers until there are n, and returns the slots.
func (t *team) grow(n int) *[]*slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.slots.Load()
	var slots []*slot
	if old != nil {
		slots = *old
	}
	if len(slots) >= n {
		return old
	}
	slots = append(slots[:len(slots):len(slots)], make([]*slot, n-len(slots))...)
	for i := range slots {
		if slots[i] == nil {
			slots[i] = &slot{wake: make(chan struct{}, 1)}
			go slots[i].help()
		}
	}
	t.slots.Store(&slots)
	return &slots
}

// help is a helper's loop: wait for a posted job, claim it, run its upper
// part, report done.
func (sl *slot) help() {
	for {
		sl.await()
		if forceClaimBack.Load() {
			runtime.Gosched()
			continue
		}
		if !sl.state.CompareAndSwap(slotPosted, slotRunning) {
			continue
		}
		sl.runUpper()
		sl.state.Store(slotDone)
	}
}

func (sl *slot) runUpper() {
	defer func() { sl.failed = recover() }()
	sl.j.run(sl.j, 1, 2)
}

// await returns once a job is posted, after spinning for up to helperSpin
// and then parking as many times as it takes.
func (sl *slot) await() {
	for {
		start := time.Now()
		for i := 1; sl.state.Load() != slotPosted; i++ {
			if i%spinYield != 0 {
				continue
			}
			if time.Since(start) > helperSpin {
				sl.park()
				break
			}
			runtime.Gosched()
		}
		if sl.state.Load() == slotPosted {
			return
		}
	}
}

// park sleeps until a post wakes it. A post stores posted before it looks
// at asleep and park stores asleep before it looks at the state, so at least
// one of them sees the other; whichever takes asleep back owns the wake-up.
func (sl *slot) park() {
	sl.asleep.Store(true)
	if sl.state.Load() == slotPosted && sl.asleep.CompareAndSwap(true, false) {
		return
	}
	<-sl.wake
}
