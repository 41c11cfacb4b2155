package routing

import (
	"fmt"
	"math"

	"bfvlsi/internal/detrng"
)

// The simulation engine. Simulate and SimulatePattern run a whole
// configuration in one call; Sim exposes the same machinery one cycle
// at a time so callers can pause a run at a cycle boundary, export its
// complete state, and later restore and continue it elsewhere (see
// internal/snapshot).
//
// One engine serves both buffer modes, running the same phases every
// cycle in the order step lists them. With BufferLimit 0 each directed
// link owns one unbounded FIFO. Finite buffers alone would deadlock -
// the column wrap closes a cyclic channel dependency, the textbook
// motivation for Dally-style virtual channels - so each link owns numVC
// virtual channels of BufferLimit slots with credit-based backpressure
// instead. The deterministic route traverses fewer than 2n links, so it
// crosses the column-(n-1) -> column-0 "dateline" at most twice; three
// virtual channels with the rule "increment VC at the dateline"
// therefore order the channel dependency graph by (vc, column) and make
// the network deadlock-free. Packets enter on VC 0, one packet crosses
// each physical link per cycle, and arbitration scans from the highest
// VC down for a movable head.
//
// The order the links move in is part of the output. It is row-major:
// row by row, and within a row column by column. Two constraints make it
// so. First, the two links into a node leave the same column, and their
// relative order decides both which of two packets is enqueued first
// when they land on the same queue (drain keeps traversal order) and,
// with finite buffers, which of them takes the last credit of that
// queue; any order that visits each column's links by increasing row
// keeps these. Second, with finite buffers and an adaptive router,
// ObserveSuccess and ObserveFailure run in the same loop as the Choose
// calls that grant moves, so a link's outcome in one column can change a
// later decision in another: the interleaving of columns matters too.
// Visiting column-major instead (each column's rows in turn) was measured
// on a copy of the engine (2-core Xeon VM, Go 1.24): no faster at n=10,
// λ=0.1 (0.91-0.98 s against 0.89-1.0 s a run), and it changed all 16 finite-buffer adaptive rows of
// the engine's 100 golden digests and the checkpoint golden frame, while
// every other row stayed identical.
//
// The parallel step cuts the rows into 2^k shards on their top k bits
// (shard.go): shard i owns rows [i<<(n-k), (i+1)<<(n-k)) in every column,
// with their queues, and runs on its own worker (team.go). This is the
// packaging cut of Theorem 2.1 applied to the simulator: a link of column
// c < n-k flips a low row bit and stays in its shard, so only the cross
// links of the top k columns, k/(2n) of all links, leave a shard. Every
// cycle then runs:
//
//   - the draw pass, serially: there is one random stream, consumed in
//     row-major order (a Float64 per live node, the destination, the
//     transport's Register). It places nothing; each packet that enters
//     goes onto its shard's injection list;
//   - a parallel region: each shard places its injections on their
//     entry queues, counting the ones a full queue refuses, then in one
//     pass over its nodes expires their dead heads and sets their
//     queues' credits, and moves its links in row-major order - all of
//     them with unbounded FIFOs, only columns below n-k with finite
//     buffers. A run with a transport or a router has one shard; its
//     retransmissions run here too, before that pass, and the re-plan
//     inside it, in the serial engine's order;
//   - with finite buffers, a serial pass moving the top-k-column links of
//     every row in row-major order. Those links, and only they, race for
//     credits across a shard boundary (the two links into a node of
//     column c+1 both leave column c), and their target queues are
//     disjoint from the low columns', so the credit-race order is the
//     serial engine's;
//   - a parallel region draining the moves. A node has at most one
//     foreign source link, the cross link from the shard that differs in
//     the flipped bit, which precedes the straight link in row order when
//     that shard is lower. So a shard lands the handoffs from lower
//     shards, then its own moves, then the handoffs from higher shards:
//     exactly the serial push order of every queue;
//   - each shard's counters folded in shard order, before the trace line.
//
// The latency and hop sums are integer partials per shard and cycle;
// added to the float64 accumulators they are exact below 2^53, so the
// fold order cannot change them. The Transport and AdaptiveRouter calls
// depend on call order (Register ids, the observations behind Choose), so
// a run with either hook keeps one shard; a FaultModel is only read
// between BeginCycle calls and may stay attached. The serial engine is
// the one-shard case of the same code, and any shard count gives the
// same bytes (TestShardIdentity). The shards of a phase touch disjoint
// state, so the caller may equally run them one after another: it does
// for a single Step, and whenever concurrent runs leave no processor
// for the workers (team.go's busy budget).
//
// The determinism contract extends to checkpointing: a run restored
// from a SimState is packet-for-packet (and trace-byte) identical to
// the uninterrupted run, provided the hooks (Faults, Reliable,
// Adaptive) are restored to their own mid-run state by the caller. All
// of the engine's randomness flows through one detrng.Source, so the
// RNG position is just a draw count.

const numVC = 3

// unboundedSlots is the initial ring size of an unbounded queue: 192
// bytes, three whole cache lines. At n=10, λ=0.1 over 99% of queues hold
// at most 8 packets at any time, the few longer ones grow (queueSlab),
// and 8 slots ran faster there than 16, whose rings spread the same
// packets over twice the memory (E24).
const unboundedSlots = 8

// Sim is one in-flight simulation. Create with NewSim or
// RestoreSim, advance with Step, RunTo or Finish, and collect the result
// with Finish. A Sim must not be shared by concurrently running
// goroutines; a sharded Sim runs its own workers inside each RunTo call
// and joins them before the call returns.
type Sim struct {
	p       Params
	pattern Pattern

	n, rows, nodes int
	total          int
	cycle          int

	rng *detrng.Source

	// rings holds the bookkeeping of queue (node*2+out)*vcs + vc for
	// every output and VC: vcs is 1 with unbounded FIFOs and numVC with
	// finite buffers, so a packet's virtual channel is its queue index
	// mod vcs. Each shard's slab shares this table and owns the slots of
	// its own queues.
	rings []ring
	vcs   int
	// room is the finite buffers' per-cycle credit scratch (else nil).
	room []int

	// shards cut the rows on their top k bits: row>>shift is a row's
	// shard, shift = n-k. team runs shards 1.. in parallel phases (nil
	// with one shard).
	shards []shard
	k      int
	shift  int
	team   *team

	res       *Result
	latSum    float64
	hopSum    float64
	latCount  int
	crossings int64
}

// arrival is the link-traversal scratch record: a packet that crossed a
// link this cycle, to be delivered or enqueued at (row, col) on VC vc
// once every link has moved. With finite buffers it also carries the
// next-hop decision made at grant time, so the drain does not decide
// twice. The narrow fields (rows ≤ 2^14, n ≤ 14) keep the record at 32
// bytes, two to a cache line (TestPacketLayout).
type arrival struct {
	pk             packet
	row            uint16
	col, vc, out   uint8
	drop, mis, det bool
}

// NewSim validates p and builds a simulation positioned before cycle 0,
// resetting the attached hooks and writing the trace header. Advance it
// with Step, RunTo or Finish.
func NewSim(p Params, pattern Pattern) (*Sim, error) {
	s, err := buildSim(p, pattern)
	if err != nil {
		return nil, err
	}
	if p.Reliable != nil {
		p.Reliable.Reset(s.nodes)
	}
	if p.Adaptive != nil {
		p.Adaptive.Reset(s.n, s.rows)
	}
	if p.Trace != nil {
		if _, err := fmt.Fprintln(p.Trace, "cycle,injected,delivered,backlog"); err != nil {
			return nil, fmt.Errorf("routing: trace header: %w", err)
		}
	}
	return s, nil
}

// buildSim validates p and allocates the engine without touching hooks
// or trace: the shared half of NewSim and RestoreSim.
func buildSim(p Params, pattern Pattern) (*Sim, error) {
	if p.N < 1 || p.N > 14 {
		return nil, fmt.Errorf("routing: dimension %d out of range [1,14]", p.N)
	}
	if p.Lambda < 0 || p.Lambda > 1 {
		return nil, fmt.Errorf("routing: lambda %v out of [0,1]", p.Lambda)
	}
	if p.Cycles <= 0 {
		return nil, fmt.Errorf("routing: need positive measured cycles")
	}
	if p.Warmup < 0 {
		return nil, fmt.Errorf("routing: negative warmup %d", p.Warmup)
	}
	if !pattern.Valid() {
		return nil, fmt.Errorf("routing: unknown traffic pattern %v", pattern)
	}
	// A packet's birth cycle and hop count are int32.
	if p.Cycles > math.MaxInt32-p.Warmup {
		return nil, fmt.Errorf("routing: warmup %d + cycles %d exceeds %d", p.Warmup, p.Cycles, math.MaxInt32)
	}
	n := p.N
	rows := 1 << uint(n)
	nodes := n * rows
	if p.ModuleOf != nil && len(p.ModuleOf) != nodes {
		return nil, fmt.Errorf("routing: ModuleOf has %d entries, want %d", len(p.ModuleOf), nodes)
	}
	// The queue slab indexes its slots with int32.
	if p.BufferLimit > math.MaxInt32/(nodes*2*numVC) {
		return nil, fmt.Errorf("routing: buffer limit %d needs more than 2^31 queue slots", p.BufferLimit)
	}
	s := &Sim{
		p: p, pattern: pattern,
		n: n, rows: rows, nodes: nodes,
		total: p.Warmup + p.Cycles,
		rng:   detrng.New(p.Seed),
		res:   &Result{Nodes: nodes},
		vcs:   1,
	}
	// Queues start at unboundedSlots and double when full; see the
	// constant for the choice. Credit backpressure bounds every finite
	// VC queue at BufferLimit slots, so carving exactly that much means
	// no such queue ever grows - the hot loop cannot allocate through a
	// push.
	slots := unboundedSlots
	if p.BufferLimit > 0 {
		s.vcs, slots = numVC, p.BufferLimit
		s.room = make([]int, nodes*2*numVC)
	}
	s.rings = make([]ring, nodes*2*s.vcs)
	s.cut(shardBits(&p, n), slots)
	return s, nil
}

// Cycle returns the next cycle Step will simulate (0-based, warmup
// included): the number of completed cycles so far.
func (s *Sim) Cycle() int { return s.cycle }

// Total returns the run length, warmup plus measured cycles.
func (s *Sim) Total() int { return s.total }

// Done reports whether every cycle has been simulated.
func (s *Sim) Done() bool { return s.cycle >= s.total }

// Step simulates one cycle. It returns an error only for trace write
// failures or stepping past the end of the run.
func (s *Sim) Step() error {
	if s.Done() {
		return fmt.Errorf("routing: step past the end of the %d-cycle run", s.total)
	}
	return s.RunTo(s.cycle + 1)
}

// RunTo simulates cycles until Cycle() reaches cycle, which must lie
// between Cycle() and Total(). It holds a processor of the shared
// budget (busy) while it runs. A sharded run of more than one cycle
// starts its worker team here and joins it before returning, on every
// path; a single cycle runs its shards on the calling goroutine.
func (s *Sim) RunTo(cycle int) error {
	if cycle < s.cycle || cycle > s.total {
		return fmt.Errorf("routing: cannot run to cycle %d from %d (total %d)", cycle, s.cycle, s.total)
	}
	if cycle == s.cycle {
		return nil
	}
	busy.Add(1)
	defer busy.Add(-1)
	if s.team != nil && cycle > s.cycle+1 {
		s.team.start()
		defer s.team.stop()
	}
	for s.cycle < cycle {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// step simulates one cycle. Every packet placement happens in the
// parallel phases; what stays serial is the hooks' cycle start, the
// random stream, the top-column credit race and the fold.
func (s *Sim) step() error {
	p := &s.p
	measured := s.cycle >= p.Warmup
	if p.Faults != nil {
		p.Faults.BeginCycle(s.cycle)
	}
	if p.Reliable != nil {
		p.Reliable.BeginCycle(s.cycle)
	}
	if p.Adaptive != nil {
		p.Adaptive.BeginCycle(s.cycle)
		runProbes(p.Adaptive, p.Faults)
	}
	s.draw(measured)
	s.parallel(phaseMove, measured)
	if s.room != nil && s.k > 0 {
		// The top-k-column links race for credits across shard
		// boundaries: they move here, serially, in row-major order.
		for row := 0; row < s.rows; row++ {
			s.moveRow(&s.shards[row>>s.shift], row, s.n-s.k, s.n, measured)
		}
	}
	s.parallel(phaseDrain, measured)
	s.fold(measured)
	if p.Trace != nil && measured {
		if _, err := fmt.Fprintf(p.Trace, "%d,%d,%d,%d\n",
			s.cycle-p.Warmup, s.res.Injected, s.res.Delivered, s.backlog()); err != nil {
			return fmt.Errorf("routing: trace at cycle %d: %w", s.cycle, err)
		}
	}
	s.cycle++
	return nil
}

// draw consumes this cycle's share of the random stream: every live
// node, in row-major order, injects with probability Lambda. A packet
// that enters the network joins its shard's injection list, for move to
// place on VC 0 of its chosen output.
func (s *Sim) draw(measured bool) {
	p, res, n, rows, rng := &s.p, s.res, s.n, s.rows, s.rng
	for i := range s.shards {
		sh := &s.shards[i]
		inj := sh.inj[:0]
		for row := sh.lo; row < sh.hi; row++ {
			for col := 0; col < n; col++ {
				src := col*rows + row
				if p.Faults != nil && p.Faults.NodeDown(src) {
					continue // dead nodes do not inject
				}
				if rng.Float64() >= p.Lambda {
					continue
				}
				dr, dc := destFor(s.pattern, n, rows, row, col, rng)
				dst := dc*rows + dr
				res.TotalInjected++
				if measured {
					res.Injected++
				}
				if dst == src {
					// Delivered in place: no copy enters the network, so
					// no duplicate can ever exist and the payload needs
					// no reliable-transport state.
					res.TotalDelivered++
					if measured {
						res.Delivered++
					}
					continue
				}
				pk := packet{dstRow: int32(dr), dstCol: int8(dc), born: int32(s.cycle), blocked: -1}
				refused, learned := s.refuse(dst)
				if p.Reliable != nil && !learned {
					// Registered before the reachability and buffer
					// checks, unless the source's own link-state map
					// refused the destination (no transport state, no
					// retries to burn). The source cannot know about a
					// dead or cut-off destination, so those retries burn
					// budget against the void until abandoned; an
					// injection refused at a full entry queue stays
					// pending for the timer to recover.
					pk.rid = p.Reliable.Register(s.cycle, src, dst)
				}
				if !refused {
					inj = append(inj, injection{pk: pk, src: int32(src)})
				}
			}
		}
		sh.inj = inj
	}
}

// retransmit re-injects the copies whose transport timers fired at their
// source, after fresh traffic (which keeps priority). A dead source or a
// full entry queue defers a copy to the next cycle without consuming a
// retry; any other outcome, refusal as unreachable included, consumes one.
func (s *Sim) retransmit() {
	p, rows := &s.p, s.rows
	for _, c := range p.Reliable.Retransmissions(s.cycle) {
		if p.Faults != nil && p.Faults.NodeDown(c.Src) {
			p.Reliable.Deferred(c.ID) // dead sources cannot resend
			continue
		}
		pk := packet{dstRow: int32(c.Dst % rows), dstCol: int8(c.Dst / rows), born: int32(s.cycle), rid: c.ID, blocked: -1}
		if refused, _ := s.refuse(c.Dst); !refused && s.offer(pk, c.Src) {
			p.Reliable.Deferred(c.ID)
			continue
		}
		p.Reliable.Emitted(c.ID, s.cycle)
		s.res.Retransmitted++
	}
}

// refuse reports whether a packet for dst is refused at its source as
// Unreachable, counting it under its cause: the adaptive router's
// disseminated map condemning dst (learned), a dead destination node, or
// every link into it dead (oracle) - rather than let the packet wander
// until its TTL or, with TTL 0, forever.
func (s *Sim) refuse(dst int) (refused, learned bool) {
	p, res := &s.p, s.res
	switch {
	case p.Adaptive != nil && p.Adaptive.RejectDest(dst):
		res.UnreachableDetected++
		learned = true
	case p.Faults != nil && p.Faults.NodeDown(dst):
		res.UnreachableDead++
	case destCut(p.Faults, s.n, s.rows, dst%s.rows, dst/s.rows):
		res.UnreachableCut++
	default:
		return false, false
	}
	res.Unreachable++
	return true, learned
}

// offer routes a packet entering at node src and places it on VC 0 of
// its chosen output, or reports that a full entry queue refused it.
func (s *Sim) offer(pk packet, src int) (full bool) {
	row := src % s.rows
	out, drop, mis, det := route(&pk, row, src/s.rows, s.rows, &s.p)
	q := (src*2 + out) * s.vcs
	if !drop && s.full(q) {
		return true
	}
	s.shards[row>>s.shift].place(q, pk, drop, mis, det)
	return false
}

// place pushes pk onto queue q of shard sh, counting a misroute or
// detour, or drops it (the DropDead policy at a dead planned link).
func (sh *shard) place(q int, pk packet, drop, mis, det bool) {
	if drop {
		sh.t.dropped++
		return
	}
	if mis {
		sh.t.misroutes++
	}
	if det {
		sh.t.detours++
	}
	sh.qs.push(q, pk)
}

// move is shard sh's first parallel phase. It places the shard's fresh
// injections - counting those a full entry queue refuses - and, in a
// run with the hooks (one shard), the transport's retransmissions. Then
// one pass readies the queues node by node (prepare), and last it moves
// the shard's links, all columns with unbounded FIFOs and the low n-k
// with finite buffers, in row-major order.
func (s *Sim) move(sh *shard, measured bool) {
	sh.arrivals = sh.arrivals[:0]
	for d := range sh.handoff {
		sh.handoff[d] = sh.handoff[d][:0]
	}
	for i := range sh.inj {
		if s.offer(sh.inj[i].pk, int(sh.inj[i].src)) {
			sh.t.refused++ // never entered at all
		}
	}
	if s.p.Reliable != nil {
		s.retransmit()
	}
	s.prepare(sh)
	cols := s.n
	if s.room != nil {
		cols = s.n - s.k
	}
	for row := sh.lo; row < sh.hi; row++ {
		s.moveRow(sh, row, 0, cols, measured)
	}
}

// prepare readies shard sh's queues for the links to move, node by node
// in queue order. At each node it expires the dead heads around the
// adaptive router's re-plan - finite buffers discard them before it, so
// that it and the credits see the freed slots, unbounded FIFOs after
// it, just before the links move - and with finite buffers it then sets
// the credits of the node's queues from their occupancy (conservative:
// moves granted later in the cycle consume them). Each step reads and
// writes only the node's own queues, and the router's Choose is a pure
// read within a cycle, so one pass gives the bytes of three separate
// scans. With unbounded FIFOs, no TTL and no hooks there is nothing to
// do.
func (s *Sim) prepare(sh *shard) {
	p, room, vcs := &s.p, s.room, s.vcs
	expire := p.TTL > 0 || p.Reliable != nil
	if room == nil && !expire && p.Adaptive == nil {
		return
	}
	before, after := expire && room != nil, expire && room == nil
	per := 2 * vcs
	for col := 0; col < s.n; col++ {
		for row := sh.lo; row < sh.hi; row++ {
			node := col*s.rows + row
			q0, q1 := node*per, (node+1)*per
			if before {
				s.expire(sh, q0, q1)
			}
			if p.Adaptive != nil {
				s.replan(&sh.qs, row, col)
			}
			if after {
				s.expire(sh, q0, q1)
			}
			if room != nil {
				for q := q0; q < q1; q++ {
					room[q] = p.BufferLimit - sh.qs.len(q)
				}
			}
		}
	}
}

// expire discards the dead heads of queues [q0, q1) of shard sh: copies
// older than the TTL into Dropped, copies of payloads the transport
// abandoned into GaveUp.
func (s *Sim) expire(sh *shard, q0, q1 int) {
	p, qs := &s.p, &sh.qs
	for q := q0; q < q1; q++ {
		for qs.len(q) > 0 {
			head := qs.front(q)
			if p.Reliable != nil && p.Reliable.Abandoned(head.rid) {
				sh.t.gaveUp++
			} else if p.TTL > 0 && s.cycle-int(head.born) >= p.TTL {
				sh.t.dropped++
			} else {
				break
			}
			qs.pop(q)
		}
	}
}

// replan lets the adaptive router re-examine the head of every queue of
// node (row, col); a head whose link the router has since condemned moves to the
// node's other output - same VC, so the dateline ordering is untouched -
// when that queue has a free slot, instead of stalling until the
// breaker re-closes. Only heads move: packets behind them follow on
// later cycles if the condemnation persists. Choose is deterministic
// within a cycle, so a moved head re-examined at its new queue re-chooses
// the same output - no ping-pong. A run with a router has one shard.
func (s *Sim) replan(qs *queueSlab, row, col int) {
	p, res, rows, vcs := &s.p, s.res, s.rows, s.vcs
	node := col*rows + row
	for out := 0; out < 2; out++ {
		for vc := 0; vc < vcs; vc++ {
			q := (node*2+out)*vcs + vc
			if qs.len(q) == 0 {
				continue
			}
			pk := qs.front(q)
			nout, _, _, det := route(&pk, row, col, rows, p)
			if nout == out {
				continue
			}
			nq := (node*2+nout)*vcs + vc
			if s.full(nq) {
				continue // no slot: stay and retry next cycle
			}
			if det {
				res.Detours++
			}
			res.Reroutes++
			qs.pop(q)
			qs.push(nq, pk)
		}
	}
}

// moveRow moves at most one packet across every live directed link out
// of columns [c0, c1) of row, which shard sh owns, recording the moves
// as sh's arrivals or as handoffs to the shard they land in; nothing is
// enqueued until every link has moved (synchronous step). Finite-buffer
// arbitration takes the highest VC whose head has a credit for its next
// queue.
func (s *Sim) moveRow(sh *shard, row, c0, c1 int, measured bool) {
	p, qs, room, t := &s.p, &sh.qs, s.room, &sh.t
	n, rows, vcs := s.n, s.rows, s.vcs
	arrivals := sh.arrivals
	for col := c0; col < c1; col++ {
		node := col*rows + row
		nextCol := col + 1
		if nextCol == n {
			nextCol = 0
		}
		for out := 0; out < 2; out++ {
			link := node*2 + out
			nr := row
			if out == 1 {
				nr = row ^ (1 << uint(col))
			}
			for vc := vcs - 1; vc >= 0; vc-- {
				q := link*vcs + vc
				if qs.len(q) == 0 {
					continue
				}
				if p.Faults != nil && p.Faults.LinkDown(node, out) {
					// Dead link: nothing moves, no credits consumed.
					if measured {
						t.stalls++
					}
					if p.Adaptive != nil {
						p.Adaptive.ObserveFailure(link)
					}
					break
				}
				pk := qs.front(q)
				nvc, nout, drop, mis, det := vc, 0, false, false, false
				if nextCol == 0 && vc < vcs-1 {
					nvc++ // dateline crossing
				}
				if room != nil && (int(pk.dstRow) != nr || int(pk.dstCol) != nextCol) {
					// Finite buffers route the next hop here, once, on
					// a scratch copy: a move the credit check denies
					// discards the decision whole (Choose is a pure
					// read, so the call left no state behind), and the
					// drain reuses the stored flags. Packets dropped
					// on arrival consume no credit.
					nout, drop, mis, det = route(&pk, nr, nextCol, rows, p)
					if !drop {
						nq := ((nextCol*rows+nr)*2+nout)*vcs + nvc
						if room[nq] <= 0 {
							if measured {
								t.stalls++
							}
							continue
						}
						room[nq]--
					}
				}
				qs.pop(q)
				pk.hops++
				if p.Adaptive != nil {
					p.Adaptive.ObserveSuccess(link)
				}
				if p.ModuleOf != nil && measured && p.ModuleOf[node] != p.ModuleOf[nextCol*rows+nr] {
					t.crossings++
				}
				a := arrival{pk: pk, row: uint16(nr), col: uint8(nextCol),
					vc: uint8(nvc), out: uint8(nout), drop: drop, mis: mis, det: det}
				if d := nr >> s.shift; d == sh.id {
					arrivals = append(arrivals, a)
				} else {
					sh.handoff[d] = append(sh.handoff[d], a)
				}
				break
			}
		}
	}
	sh.arrivals = arrivals
}

// drain is shard sh's second parallel phase: it delivers or enqueues
// every move that landed in sh - the handoffs from lower shards, its
// own, then the handoffs from higher shards, which is traversal order
// at every queue.
func (s *Sim) drain(sh *shard, measured bool) {
	for i := range s.shards[:sh.id] {
		s.land(sh, s.shards[i].handoff[sh.id], measured)
	}
	s.land(sh, sh.arrivals, measured)
	for i := sh.id + 1; i < len(s.shards); i++ {
		s.land(sh, s.shards[i].handoff[sh.id], measured)
	}
}

// land delivers or enqueues arrivals at their nodes in shard sh, in
// order.
func (s *Sim) land(sh *shard, arrivals []arrival, measured bool) {
	p, t, rows, vcs, bounded := &s.p, &sh.t, s.rows, s.vcs, s.room != nil
	for i := range arrivals {
		a := &arrivals[i]
		row, col := int(a.row), int(a.col)
		if int(a.pk.dstRow) == row && int(a.pk.dstCol) == col {
			born := int(a.pk.born)
			if p.Reliable != nil {
				v, born0 := p.Reliable.Arrive(s.cycle, a.pk.rid)
				switch v {
				case DeliverDuplicate:
					t.duplicates++
					continue
				case DeliverGaveUp:
					t.gaveUp++
					continue
				}
				// End-to-end latency runs from the payload's first
				// injection, not this copy's emission.
				born = born0
			}
			t.totalDelivered++
			if measured {
				t.delivered++
				if born >= p.Warmup {
					t.lat += int64(s.cycle - born + 1)
					t.hops += int64(a.pk.hops)
					t.latCount++
				}
			}
			continue
		}
		out, drop, mis, det := int(a.out), a.drop, a.mis, a.det
		if !bounded {
			// Unbounded FIFOs route the next hop only now, after every
			// link has moved and reported to the adaptive router.
			out, drop, mis, det = route(&a.pk, row, col, rows, p)
		}
		sh.place(((col*rows+row)*2+out)*vcs+int(a.vc), a.pk, drop, mis, det)
	}
}

// full reports whether queue q has no free slot (never, when unbounded).
func (s *Sim) full(q int) bool {
	return s.p.BufferLimit > 0 && int(s.rings[q].n) >= s.p.BufferLimit
}

// backlog returns the total number of queued packets.
func (s *Sim) backlog() int {
	total := 0
	for q := range s.rings {
		total += int(s.rings[q].n)
	}
	return total
}

// Finish simulates the remaining cycles and returns the final Result.
// The Sim itself is left at the end of the run; Finish is idempotent
// once the run completes.
func (s *Sim) Finish() (*Result, error) {
	if err := s.RunTo(s.total); err != nil {
		return nil, err
	}
	res := *s.res
	for q := range s.rings {
		l := int(s.rings[q].n)
		res.Backlog += l
		if l > res.MaxQueue {
			res.MaxQueue = l
		}
	}
	res.Throughput = float64(res.Delivered) / float64(res.Nodes) / float64(s.p.Cycles)
	if s.latCount > 0 {
		res.AvgLatency = s.latSum / float64(s.latCount)
		res.AvgHops = s.hopSum / float64(s.latCount)
	}
	res.BoundaryCrossingsPerCycle = float64(s.crossings) / float64(s.p.Cycles)
	return &res, nil
}
