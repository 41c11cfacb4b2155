package routing

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// team runs shards 1.. of a sharded Sim's parallel phases on worker
// goroutines while the calling goroutine runs shard 0. Workers live for
// one RunTo call (start to stop), so none outlives the call.
//
// A phase is a fork and a join. The caller publishes the phase, then
// bumps gen; each worker runs its shard and counts left down; the
// caller waits for left to reach zero. Every wait spins first and parks
// only after spinLimit rounds: a parked goroutine wakes late (a
// goroutine spawned per phase started about 120 µs late on a 2-core VM,
// against a 1 ms cycle at n=10), and at that size the serial phases a
// worker waits through are shorter than the spin. Parking keeps an idle
// worker off the processor when they are not. Nothing here allocates
// per phase (TestStepAllocsZero).
//
// The workers run a phase only while the team holds a processor for
// each of them from busy (engage); otherwise the caller runs every
// shard itself, one after another, and the workers park.
type team struct {
	s       *Sim
	gen     atomic.Uint32 // bumped to start a phase
	left    atomic.Int32  // workers still running the current phase
	phase   int           // the current phase; written before gen is bumped
	measure bool          // the current cycle's measured flag, likewise
	workers []parker      // workers[i] runs shard i+1
	main    parker        // the calling goroutine, waiting in join
	wg      sync.WaitGroup
	// on is set from start to stop; held while the team holds its
	// workers' processors; procs is GOMAXPROCS at start; forced runs
	// the workers whatever busy says (a forced shard count).
	on, held, forced bool
	procs            int32
}

// busy counts the processors this process's simulator runs hold: one
// for every RunTo call in progress, plus one for every worker of a team
// that holds its processors. A team claims them only while busy stays
// within GOMAXPROCS, and gives them back as soon as another run pushes
// busy past it, so runs that fill the processors between them (a fault
// sweep's cells, concurrent requests to a server) each run their shards
// on their own goroutine rather than wait on workers that have no
// processor to run on. Without the budget a bffault sweep, whose cells
// occupy both processors of a 2-core VM, ran 1.30x slower at n=9 and
// 1.07x slower at n=10 on two shards than serially (EXPERIMENTS.md E24).
var busy atomic.Int32

// spinLimit is how many rounds a wait spins before it parks, about
// 0.4 ms on the 2-core VM: longer than the draw pass at n=10 (about 0.2 ms),
// the longest serial phase of a cycle. Every yieldEvery-th round yields
// the processor, so a wait cannot starve the goroutine it waits for when
// GOMAXPROCS is 1.
const (
	spinLimit  = 1 << 16
	yieldEvery = 64
)

// parker is one goroutine's half of the spin-then-park handshake: a
// goroutine about to park sets asleep, and whoever makes its condition
// true and clears asleep owes it one token on wake.
type parker struct {
	asleep atomic.Bool
	wake   chan struct{}
}

// newTeam builds the team of a Sim with more than one shard.
func newTeam(s *Sim) *team {
	t := &team{s: s, workers: make([]parker, len(s.shards)-1)}
	t.main.wake = make(chan struct{}, 1)
	for i := range t.workers {
		t.workers[i].wake = make(chan struct{}, 1)
	}
	return t
}

// start launches the workers.
func (t *team) start() {
	t.on, t.forced = true, forcedShards.Load() > 0
	t.procs = int32(runtime.GOMAXPROCS(0))
	gen := t.gen.Load()
	t.wg.Add(len(t.workers))
	for i := range t.workers {
		go t.work(i, gen)
	}
}

// stop waits out any phase still running (a panic can leave one), tells
// the workers to exit and waits until they have.
func (t *team) stop() {
	t.join()
	if t.held {
		busy.Add(-int32(len(t.workers)))
		t.held = false
	}
	t.on = false
	t.phase = phaseExit
	t.gen.Add(1)
	for i := range t.workers {
		t.workers[i].rouse()
	}
	t.wg.Wait()
}

// engage reports whether the workers run the next phase. A team that
// holds its processors keeps them while busy stays within GOMAXPROCS
// and returns them once it does not; a team without them claims them
// when busy has room for them all.
func (t *team) engage() bool {
	switch {
	case !t.on:
		return false
	case t.forced:
		return true
	}
	w := int32(len(t.workers))
	if t.held {
		if busy.Load() <= t.procs {
			return true
		}
		busy.Add(-w)
		t.held = false
		return false
	}
	for b := busy.Load(); b+w <= t.procs; b = busy.Load() {
		if busy.CompareAndSwap(b, b+w) {
			t.held = true
			return true
		}
	}
	return false
}

// run starts phase on every worker.
func (t *team) run(phase int, measured bool) {
	t.phase, t.measure = phase, measured
	t.left.Store(int32(len(t.workers)))
	t.gen.Add(1)
	for i := range t.workers {
		t.workers[i].rouse()
	}
}

// join returns once every worker has finished the current phase.
func (t *team) join() {
	t.main.wait(func() bool { return t.left.Load() == 0 })
}

// work is worker i's loop: wait for the next phase past seen, run it on
// shard i+1, report.
func (t *team) work(i int, seen uint32) {
	defer t.wg.Done()
	me, sh := &t.workers[i], &t.s.shards[i+1]
	for {
		me.wait(func() bool { return t.gen.Load() != seen })
		seen = t.gen.Load()
		if t.phase == phaseExit {
			return
		}
		t.s.runPhase(t.phase, sh, t.measure)
		if t.left.Add(-1) == 0 {
			t.main.rouse()
		}
	}
}

// rouse wakes p's goroutine if it has parked or is about to.
func (p *parker) rouse() {
	if p.asleep.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// wait returns once ready reports true. It spins first, then sets
// asleep, checks ready once more and parks until a rouse. A rouse that
// cleared asleep before that check still owes its token, which wait
// consumes so none is left for the next park.
func (p *parker) wait(ready func() bool) {
	for spin := 0; !ready(); spin++ {
		if spin < spinLimit {
			if spin%yieldEvery == yieldEvery-1 {
				runtime.Gosched()
			}
			continue
		}
		p.asleep.Store(true)
		if ready() {
			if !p.asleep.CompareAndSwap(true, false) {
				<-p.wake
			}
			return
		}
		<-p.wake
	}
}
