package routing

import (
	"runtime"
	"sync/atomic"
)

// Row-block shards of the parallel step (see the sim.go header for the
// cut, the per-cycle phases and the merge order).

// shard is one row block: rows [lo, hi) of every column, their queues'
// slots, the packets injected and the moves landing in the block, and
// the block's counters.
type shard struct {
	id, lo, hi int
	// qs shares the Sim's ring table; its slots hold this shard's
	// queues only, so a push that grows a queue touches nothing shared.
	qs queueSlab
	// inj are this cycle's fresh packets entering at the shard's nodes,
	// in row-major order: drawn serially, placed by move.
	inj []injection
	// arrivals are this cycle's moves that land in this shard, in
	// traversal order; handoff[d] those that land in shard d.
	arrivals []arrival
	handoff  [][]arrival
	t        tally
}

// injection is a packet drawn to enter the network at node src.
type injection struct {
	pk  packet
	src int32
}

// tally is one shard's share of a cycle's counters: the Result counters
// the parallel phases and the top-column pass touch, plus the latency
// and hop sums as integers, so they fold exactly.
// refused counts the injections a full entry queue turned away.
type tally struct {
	refused                     int
	dropped, gaveUp, duplicates int
	misroutes, detours, stalls  int
	delivered, totalDelivered   int
	latCount                    int
	lat, hops, crossings        int64
}

// minShardNodes is the least number of nodes a shard may hold: 2,304,
// n=9 halved, so n ≤ 8 stays serial. It is not where two shards start
// to win: on an idle second core forced 2 shards already ran n=8
// 1.17-1.32x faster (BenchmarkStepAllocs, 2-core Xeon VM, Go 1.24,
// EXPERIMENTS.md E24), and about 2x slower than serial with two
// benchmark processes competing for the cores, contention that busy
// cannot see. It keeps perfbench's route-cold mix, n=6 and n=8 requests
// from two concurrent clients, serial.
const minShardNodes = 9 << 8

// maxShardBits caps the default rule at 2 shards: the step has only
// been measured on a 2-core machine.
const maxShardBits = 1

// forcedShards, when nonzero, overrides the shard count of every run
// that may shard, whatever its size and GOMAXPROCS, and its team's
// workers run every phase, whatever the processor budget. Tests set it
// through export_test.go; it is not a knob.
var forcedShards atomic.Int32

// shardBits returns k: the run is cut into 2^k shards. A run with a
// transport or an adaptive router keeps one shard, since their calls
// depend on order. Otherwise k grows, up to maxShardBits, while
// GOMAXPROCS has a processor for every shard and every shard keeps
// minShardNodes nodes. Whether the shards then run in parallel is
// decided phase by phase (team.engage).
func shardBits(p *Params, n int) int {
	if p.Reliable != nil || p.Adaptive != nil {
		return 0
	}
	k := 0
	if f := int(forcedShards.Load()); f > 0 {
		for k < n && 2<<k <= f {
			k++
		}
		return k
	}
	nodes, procs := n<<n, runtime.GOMAXPROCS(0)
	for k < maxShardBits && 2<<k <= procs && nodes>>(k+1) >= minShardNodes {
		k++
	}
	return k
}

// cut splits the rows into 2^k shards and carves each shard's slab:
// slots slots for every one of its queues, column by column, so one
// shard lays its queues out exactly as the serial engine did.
func (s *Sim) cut(k, slots int) {
	s.k, s.shift = k, s.n-k
	count, size := 1<<k, s.rows>>k
	s.shards = make([]shard, count)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.id, sh.lo, sh.hi = i, i*size, (i+1)*size
		per := size * 2 * s.vcs
		sh.qs = queueSlab{rings: s.rings, slots: make([]packet, s.n*per*slots)}
		off := 0
		for col := 0; col < s.n; col++ {
			q0, q1 := s.queueSpan(sh, col)
			for q := q0; q < q1; q++ {
				s.rings[q] = ring{off: int32(off), size: int32(slots)}
				off += slots
			}
		}
		// A shard's nodes inject at most one packet each a cycle, its
		// links move at most one each, and a cross link of top column
		// n-k+b lands in the shard across bit b: sized so, no list ever
		// grows.
		sh.inj = make([]injection, 0, s.n*size)
		sh.arrivals = make([]arrival, 0, 2*s.n*size)
		sh.handoff = make([][]arrival, count)
		for b := 0; b < k; b++ {
			sh.handoff[i^(1<<b)] = make([]arrival, 0, size)
		}
	}
	if count > 1 {
		s.team = newTeam(s)
	}
}

// queueSpan returns the queues [q0, q1) of shard sh's nodes in column
// col.
func (s *Sim) queueSpan(sh *shard, col int) (q0, q1 int) {
	per := 2 * s.vcs
	return (col*s.rows + sh.lo) * per, (col*s.rows + sh.hi) * per
}

// shardOfQueue returns the shard owning queue q.
func (s *Sim) shardOfQueue(q int) *shard {
	return &s.shards[((q/(2*s.vcs))%s.rows)>>s.shift]
}

// The parallel phases of a cycle.
const (
	phaseMove = iota
	phaseDrain
	phaseExit
)

// parallel runs phase on every shard and returns once all are done:
// shard 0 on the calling goroutine and the others on the team's workers
// when the team is engaged, else every shard in turn on the calling
// goroutine. Within a phase the shards touch disjoint state, so either
// way gives the same bytes.
func (s *Sim) parallel(phase int, measured bool) {
	if t := s.team; t != nil && t.engage() {
		t.run(phase, measured)
		s.runPhase(phase, &s.shards[0], measured)
		t.join()
		return
	}
	for i := range s.shards {
		s.runPhase(phase, &s.shards[i], measured)
	}
}

// runPhase runs one parallel phase on shard sh.
func (s *Sim) runPhase(phase int, sh *shard, measured bool) {
	if phase == phaseMove {
		s.move(sh, measured)
	} else {
		s.drain(sh, measured)
	}
}

// fold adds every shard's tally to the run's counters, in shard order,
// and clears it.
func (s *Sim) fold(measured bool) {
	res := s.res
	for i := range s.shards {
		t := &s.shards[i].t
		res.TotalInjected -= t.refused
		if measured {
			res.Injected -= t.refused
			res.InjectionDrops += t.refused
		}
		res.Dropped += t.dropped
		res.GaveUp += t.gaveUp
		res.DuplicatesDropped += t.duplicates
		res.Misroutes += t.misroutes
		res.Detours += t.detours
		res.Stalls += t.stalls
		res.Delivered += t.delivered
		res.TotalDelivered += t.totalDelivered
		s.latSum += float64(t.lat)
		s.hopSum += float64(t.hops)
		s.latCount += t.latCount
		s.crossings += t.crossings
		*t = tally{}
	}
}
