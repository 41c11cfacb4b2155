package routing

import (
	"fmt"
	"math"

	"bfvlsi/internal/detrng"
)

// Mid-run state export and restore. A SimState captured at a cycle
// boundary, together with the run's Params and the attached hooks' own
// state, determines the rest of the run exactly: RestoreSim continues
// packet-for-packet (and trace-byte) identical to the uninterrupted
// run. internal/snapshot serializes SimState (and the hook states)
// into a versioned, content-addressed checkpoint.

// PacketState is one queued packet of a paused run. Queue is the
// engine's queue index, (node*2+out)*vcs + vc, where vcs is 1 with
// unbounded FIFOs and numVC with finite buffers; packets of one queue
// appear in FIFO order. VC is the packet's virtual channel, always
// Queue%vcs (so 0 with unbounded FIFOs).
type PacketState struct {
	Queue          int
	DstRow, DstCol int
	Born           int
	Hops           int
	RID            uint64
	Detours        int
	Blocked        int
	VC             int
}

// SimState is the complete engine state of a paused run at a cycle
// boundary: everything Step touches that outlives a cycle, minus the
// hook (Faults/Reliable/Adaptive) internals, which their packages
// export themselves. Counters holds the running totals only — the
// derived summary fields (Backlog, MaxQueue, Throughput, AvgLatency,
// AvgHops, BoundaryCrossingsPerCycle) are computed by Finish and must
// be zero here.
type SimState struct {
	// Cycle is the number of completed cycles: the next cycle to run.
	Cycle int
	// Draws is the RNG stream position (values drawn since seeding).
	Draws uint64
	// Packets lists every queued packet, queue-major, FIFO order.
	Packets []PacketState
	// Counters are the running totals as of the boundary.
	Counters Result
	// Latency/hop accumulators and the module-boundary crossing count.
	LatSum, HopSum float64
	LatCount       int
	Crossings      int64
}

// State exports the engine's complete state at the current cycle
// boundary. The result shares no memory with the Sim.
func (s *Sim) State() *SimState {
	st := &SimState{
		Cycle:     s.cycle,
		Draws:     s.rng.Draws(),
		Counters:  *s.res,
		LatSum:    s.latSum,
		HopSum:    s.hopSum,
		LatCount:  s.latCount,
		Crossings: s.crossings,
	}
	if backlog := s.backlog(); backlog > 0 {
		st.Packets = make([]PacketState, 0, backlog)
	}
	for q := range s.rings {
		qs := &s.shardOfQueue(q).qs
		for i := 0; i < qs.len(q); i++ {
			pk := qs.at(q, i)
			st.Packets = append(st.Packets, PacketState{
				Queue: q, DstRow: int(pk.dstRow), DstCol: int(pk.dstCol),
				Born: int(pk.born), Hops: int(pk.hops), RID: pk.rid,
				Detours: int(pk.detours), Blocked: int(pk.blocked), VC: q % s.vcs,
			})
		}
	}
	return st
}

// RestoreSim rebuilds a paused run from its Params and exported state.
// It validates st against p and fails on any inconsistency, so a
// corrupt state cannot produce a silently wrong run. The restored Sim
// does not reset the attached hooks and does not rewrite the trace
// header: the caller restores hook state separately, and trace output
// of the prefix and the continuation concatenate to the uninterrupted
// run's bytes.
func RestoreSim(p Params, pattern Pattern, st *SimState) (*Sim, error) {
	s, err := buildSim(p, pattern)
	if err != nil {
		return nil, err
	}
	if st.Cycle < 0 || st.Cycle > s.total {
		return nil, fmt.Errorf("routing: restore cycle %d out of [0,%d]", st.Cycle, s.total)
	}
	if err := checkCounters(&st.Counters, s.nodes, len(st.Packets)); err != nil {
		return nil, err
	}
	// Finish divides the crossings by the measured cycles into
	// BoundaryCrossingsPerCycle, which must read 0 without modules.
	if st.Crossings < 0 || st.Crossings != 0 && p.ModuleOf == nil {
		return nil, fmt.Errorf("routing: restore crossing count %d is negative or set without Params.ModuleOf", st.Crossings)
	}
	prev := -1
	for i := range st.Packets {
		ps := &st.Packets[i]
		if err := s.checkPacket(ps, st.Cycle); err != nil {
			return nil, fmt.Errorf("routing: restore packet %d: %w", i, err)
		}
		if ps.Queue < prev {
			return nil, fmt.Errorf("routing: restore packet %d: queue %d out of order (after %d)", i, ps.Queue, prev)
		}
		prev = ps.Queue
		if s.full(ps.Queue) {
			return nil, fmt.Errorf("routing: restore packet %d: queue %d over BufferLimit %d", i, ps.Queue, p.BufferLimit)
		}
		s.shardOfQueue(ps.Queue).qs.push(ps.Queue, packet{
			dstRow: int32(ps.DstRow), dstCol: int8(ps.DstCol), born: int32(ps.Born),
			hops: int32(ps.Hops), rid: ps.RID, detours: int16(ps.Detours), blocked: int8(ps.Blocked),
		})
	}
	s.cycle = st.Cycle
	s.rng = detrng.Restore(p.Seed, st.Draws)
	counters := st.Counters
	s.res = &counters
	s.latSum, s.hopSum = st.LatSum, st.HopSum
	s.latCount = st.LatCount
	s.crossings = st.Crossings
	return s, nil
}

// checkPacket validates one exported packet against the engine's
// geometry and queue layout, and against the ranges of packet's narrow
// fields: the destination and blocked column are bounded by n ≤ 14 and
// the birth cycle by the run length ≤ MaxInt32 (buildSim), hops and
// detours by their own checks here.
func (s *Sim) checkPacket(ps *PacketState, cycle int) error {
	if ps.Queue < 0 || ps.Queue >= len(s.rings) {
		return fmt.Errorf("queue %d out of [0,%d)", ps.Queue, len(s.rings))
	}
	if ps.DstRow < 0 || ps.DstRow >= s.rows || ps.DstCol < 0 || ps.DstCol >= s.n {
		return fmt.Errorf("destination (%d,%d) outside %dx%d", ps.DstRow, ps.DstCol, s.rows, s.n)
	}
	if ps.Born < 0 || ps.Born >= cycle {
		return fmt.Errorf("born %d outside [0,%d)", ps.Born, cycle)
	}
	if ps.Hops < 0 || ps.Hops > math.MaxInt32 || ps.Detours < 0 || ps.Detours > MaxDetours {
		return fmt.Errorf("hops %d or detours %d outside [0,%d] or [0,%d]", ps.Hops, ps.Detours, math.MaxInt32, MaxDetours)
	}
	if ps.Blocked < -1 || ps.Blocked >= s.n {
		return fmt.Errorf("blocked column %d outside [-1,%d)", ps.Blocked, s.n)
	}
	if wantVC := ps.Queue % s.vcs; ps.VC != wantVC {
		return fmt.Errorf("vc %d does not match queue %d (want %d)", ps.VC, ps.Queue, wantVC)
	}
	return nil
}

// checkCounters validates an exported counter block: derived summary
// fields zero, all totals nonnegative, and the conservation identities
// intact with the queued packets as the backlog term.
func checkCounters(c *Result, nodes, backlog int) error {
	if c.Nodes != nodes {
		return fmt.Errorf("routing: restore counters for %d nodes, want %d", c.Nodes, nodes)
	}
	if c.Backlog != 0 || c.MaxQueue != 0 || c.Throughput != 0 ||
		c.AvgLatency != 0 || c.AvgHops != 0 || c.BoundaryCrossingsPerCycle != 0 {
		return fmt.Errorf("routing: restore counters carry derived summary fields; they are computed by Finish and must be zero")
	}
	for _, v := range []int{
		c.Injected, c.Delivered, c.InjectionDrops, c.Stalls, c.Dropped,
		c.Unreachable, c.Misroutes, c.Detours, c.Reroutes,
		c.UnreachableDead, c.UnreachableCut, c.UnreachableDetected,
		c.Retransmitted, c.DuplicatesDropped, c.GaveUp,
		c.TotalInjected, c.TotalDelivered,
	} {
		if v < 0 {
			return fmt.Errorf("routing: restore counters carry a negative total")
		}
	}
	chk := *c
	chk.Backlog = backlog
	if err := chk.CheckConservation(); err != nil {
		return fmt.Errorf("routing: restore counters: %w", err)
	}
	return nil
}
