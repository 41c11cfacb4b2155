// Package routing is a synchronous packet-routing simulator for wrapped
// butterfly networks. It provides the empirical counterpart of the
// Section 2.3 lower-bound argument: with uniform random traffic the
// maximum sustainable injection rate of an R-row butterfly is
// Theta(1/log R) (average distance Theta(log R), balanced link loads), so
// an M-node module must expose Omega(M/log R) off-module links.
//
// The model: every node of the n-dimensional wrapped butterfly (R = 2^n
// rows, n stage columns) injects a packet per cycle with probability
// lambda, addressed to a uniformly random node. Routing is deterministic
// and stateless: at column s the packet takes the cross link if address
// bit s of its current row disagrees with its destination row, else the
// straight link; once the row matches it continues straight to the
// destination column. Every directed link moves at most one packet per
// cycle. Per-link FIFO queues are unbounded by default; Params.BufferLimit
// bounds them instead, with credit backpressure and dateline virtual
// channels (see Sim).
package routing

import (
	"fmt"
	"io"
	"math"
)

// Params configures one simulation run.
type Params struct {
	// N is the butterfly dimension (R = 2^N rows, N columns).
	N int
	// Lambda is the per-node injection probability per cycle.
	Lambda float64
	// Warmup cycles are simulated but excluded from measurements.
	Warmup int
	// Cycles is the number of measured cycles after warmup. Warmup must
	// be non-negative, Cycles positive, and their sum at most MaxInt32.
	Cycles int
	// Seed drives the run's randomness (same seed, same run).
	Seed int64
	// ModuleOf, if non-nil, maps node id (col*R + row) to a module;
	// boundary-crossing traffic is then measured.
	ModuleOf []int
	// BufferLimit caps the per-virtual-channel FIFO of every link
	// (0 = one unbounded FIFO per link). Finite buffers bring
	// credit-based backpressure - a full entry queue refuses injections
	// (InjectionDrops) - and three virtual channels per link, raised at
	// the column wrap "dateline": without them the wrapped column ring
	// deadlocks.
	BufferLimit int
	// Trace, if non-nil, receives one CSV line per measured cycle:
	// cycle,injected,delivered,backlog (cumulative counts, end-of-cycle
	// backlog). A header line is written first.
	Trace io.Writer
	// Faults, if non-nil, supplies per-cycle node and link fault state
	// (see internal/faults for implementations). With a nil Faults - or
	// one that never reports a fault - the run is identical to the
	// fault-free simulation, packet for packet.
	Faults FaultModel
	// Policy selects the router's reaction to dead planned links. The
	// zero value is Misroute (the fault-aware policy); DropDead is the
	// naive baseline. Ignored when Faults is nil.
	Policy Policy
	// TTL, if positive, drops any packet that has been in the network
	// for TTL cycles without being delivered (age = cycle - injection
	// cycle; expired packets are discarded when they reach the head of
	// a queue). 0 disables the check. A TTL bounds the lifetime of
	// packets trapped by permanent faults - without one they sit in
	// Backlog forever. Retransmitted copies age from their own emission
	// cycle.
	TTL int
	// Reliable, if non-nil, layers an end-to-end reliable transport over
	// the run (see internal/reliable): sources retransmit undelivered
	// payloads on timeout, destinations suppress duplicates, and the
	// Retransmitted / DuplicatesDropped / GaveUp counters become live.
	// With a nil Transport - or one whose timers never fire - the run is
	// identical to the plain simulation, packet for packet.
	Reliable Transport
	// Adaptive, if non-nil, replaces the static Policy with an online
	// fault-aware adaptive router (see internal/adaptive): link health is
	// learned from failed attempts and control-plane probes, packets take
	// bounded detours around condemned links, queued packets are
	// re-planned after their link is condemned, and injections to
	// destinations the disseminated link-state map calls unreachable are
	// refused upfront. Policy is ignored while Adaptive is set. A router
	// that has learned nothing (zero faults) leaves the run identical to
	// the plain simulation, packet for packet.
	Adaptive AdaptiveRouter
}

// Result summarizes a run.
type Result struct {
	Nodes     int
	Injected  int
	Delivered int
	// Throughput is delivered packets per node per measured cycle.
	Throughput float64
	// AvgLatency is the mean injection-to-delivery time of packets
	// delivered during the measurement window.
	AvgLatency float64
	// AvgHops is the mean hop count of delivered packets.
	AvgHops float64
	// MaxQueue is the largest per-link queue observed at the end.
	MaxQueue int
	// Backlog is the number of packets still queued at the end.
	Backlog int
	// BoundaryCrossingsPerCycle is the mean number of packets crossing a
	// module boundary per measured cycle (0 unless ModuleOf is set).
	BoundaryCrossingsPerCycle float64
	// InjectionDrops counts injections refused because the entry queue
	// was full (finite buffers only).
	InjectionDrops int
	// Stalls counts blocked moves in measured cycles: one per occupied
	// dead link per cycle (fault injection), plus, with finite buffers,
	// one per queue head denied a credit for its next queue - so up to
	// three per live link per cycle, one per virtual channel.
	Stalls int
	// Dropped counts packets discarded in flight - TTL expiry, or a
	// dead planned link under the DropDead policy - over the whole run,
	// warmup included (like Backlog, so conservation is exact).
	Dropped int
	// Unreachable counts packets that were addressed to a node that was
	// dead at injection time, over the whole run. They never enter the
	// network. A destination that dies while a packet is in flight is
	// not detected; such packets wander until their TTL drops them.
	Unreachable int
	// Misroutes counts fallback hops taken because the planned output
	// link was dead (Misroute policy), over the whole run.
	Misroutes int
	// Detours counts hops where the adaptive router (Params.Adaptive)
	// chose a non-planned output - forced fallbacks around condemned
	// links plus deliberate dimension-shifts - over the whole run. Zero
	// without a router.
	Detours int
	// Reroutes counts queued packets the adaptive router moved to their
	// node's other output queue after condemning the link they waited on.
	Reroutes int
	// UnreachableDead, UnreachableCut, and UnreachableDetected partition
	// Unreachable by cause: destination node dead at injection (oracle),
	// every link into the destination dead at injection (oracle), or the
	// adaptive router's disseminated link-state map condemning the
	// destination (learned). Exactly: Unreachable = UnreachableDead +
	// UnreachableCut + UnreachableDetected; CheckConservation verifies
	// it.
	UnreachableDead, UnreachableCut, UnreachableDetected int
	// Retransmitted counts copies re-injected by the reliable transport
	// (Params.Reliable), over the whole run. Zero without a transport.
	Retransmitted int
	// DuplicatesDropped counts copies that arrived at their destination
	// after the payload had already been accepted; the destination
	// suppresses them so goodput counts each payload once.
	DuplicatesDropped int
	// GaveUp counts copies written off after the source abandoned their
	// payload (retry budget exhausted): discarded at a queue head or on
	// arrival at the destination.
	GaveUp int
	// TotalInjected and TotalDelivered count over the whole run, warmup
	// included (Injected and Delivered remain measurement-window
	// counts). Exactly: TotalInjected + Retransmitted = TotalDelivered +
	// DuplicatesDropped + Dropped + GaveUp + Unreachable + Backlog.
	// Result.CheckConservation verifies it. Under a reliable transport
	// TotalDelivered counts accepted payloads (first copies only).
	TotalInjected, TotalDelivered int
}

// CheckConservation verifies that no copy was lost by the simulator:
// every copy that entered the system over the whole run - fresh injection
// or retransmission - was accepted, suppressed as a duplicate, dropped,
// written off after the source gave up, refused as unreachable, or is
// still queued. Without a reliable transport the extra terms are zero and
// the identity reduces to the classic TotalInjected = TotalDelivered +
// Dropped + Unreachable + Backlog.
func (r *Result) CheckConservation() error {
	if got := r.TotalDelivered + r.DuplicatesDropped + r.Dropped + r.GaveUp + r.Unreachable + r.Backlog; got != r.TotalInjected+r.Retransmitted {
		return fmt.Errorf("routing: conservation violated: injected %d + retransmitted %d != delivered %d + duplicates %d + dropped %d + gaveup %d + unreachable %d + backlog %d",
			r.TotalInjected, r.Retransmitted, r.TotalDelivered, r.DuplicatesDropped, r.Dropped, r.GaveUp, r.Unreachable, r.Backlog)
	}
	if got := r.UnreachableDead + r.UnreachableCut + r.UnreachableDetected; got != r.Unreachable {
		return fmt.Errorf("routing: unreachable accounting violated: dead %d + cut %d + detected %d != unreachable %d",
			r.UnreachableDead, r.UnreachableCut, r.UnreachableDetected, r.Unreachable)
	}
	return nil
}

// packet is one queued packet. Its fields are as narrow as their ranges
// allow, so a packet is 24 bytes (TestPacketLayout): the simulator's
// cost at large n is the memory its queues touch. The ranges are
// enforced where values enter: buildSim bounds the run at MaxInt32
// cycles (born, hops) and n at 14 (dstRow, dstCol, blocked), checkPacket
// bounds restored packets, and MaxDetours bounds the detour budget.
type packet struct {
	// rid is the reliable-transport payload id (0 when no transport is
	// attached; see Params.Reliable).
	rid                uint64
	dstRow, born, hops int32
	// detours is the deliberate-detour budget the packet has spent, and
	// blocked the column whose bit a condemned cross link kept it from
	// fixing (-1 when none) - adaptive-router state (see adaptive.go),
	// untouched without a router.
	detours int16
	dstCol  int8
	blocked int8
}

// MaxDetours is the largest deliberate-detour budget an adaptive
// router may grant a packet: the packet's detour counter is 16 bits.
const MaxDetours = math.MaxInt16

// Simulate runs the synchronous simulation with uniform random traffic.
func Simulate(p Params) (*Result, error) {
	return simulate(p, Uniform)
}

func simulate(p Params, pattern Pattern) (*Result, error) {
	s, err := NewSim(p, pattern)
	if err != nil {
		return nil, err
	}
	return s.Finish()
}

// SaturationOptions tunes the saturation search.
type SaturationOptions struct {
	Warmup, Cycles int
	Seed           int64
	// Efficiency is the delivered/injected ratio that still counts as
	// stable (default 0.95).
	Efficiency float64
	// Steps is the number of bisection steps (default 7).
	Steps int
}

// SaturationRate estimates, by bisection over lambda, the maximum stable
// injection rate of the n-dimensional wrapped butterfly under uniform
// random traffic. Theory: Theta(1/n).
func SaturationRate(n int, opts SaturationOptions) (float64, error) {
	if opts.Warmup == 0 {
		opts.Warmup = 300
	}
	if opts.Cycles == 0 {
		opts.Cycles = 700
	}
	if opts.Efficiency == 0 {
		opts.Efficiency = 0.95
	}
	if opts.Steps == 0 {
		opts.Steps = 7
	}
	stable := func(lambda float64) (bool, error) {
		r, err := Simulate(Params{
			N: n, Lambda: lambda,
			Warmup: opts.Warmup, Cycles: opts.Cycles, Seed: opts.Seed + 1,
		})
		if err != nil {
			return false, err
		}
		return r.Throughput >= opts.Efficiency*lambda, nil
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < opts.Steps; i++ {
		mid := (lo + hi) / 2
		ok, err := stable(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// TheoreticalSaturation returns the analytic fluid-limit saturation rate:
// each of the nR nodes injects lambda packets per cycle travelling
// E[hops] links on average over 2nR directed links of unit capacity, so
// lambda* = 2nR / (nR * E[hops]) = 2 / E[hops], with E[hops] ~ 3n/2:
// about n hops to pass every column whose row bit may need fixing, plus
// about n/2 more on average to run on to the destination column. The
// exact expectation is computed by enumeration.
func TheoreticalSaturation(n int) float64 {
	return 2 / ExpectedHops(n)
}

// ExpectedHops computes the exact mean path length of the deterministic
// route over uniform random source/destination pairs, by symmetry
// averaging over destinations from a fixed source column.
func ExpectedHops(n int) float64 {
	rows := 1 << uint(n)
	// By vertex-transitivity fix source (row 0, col 0). For destination
	// (dr, dc): the route fixes differing bits as their columns pass,
	// then runs straight to dc. Hop count: let f = the last column index
	// (in visiting order starting at col 0) whose bit differs; the walk
	// must pass through all columns up to f, then continue to dc.
	total := 0.0
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < n; dc++ {
			total += float64(pathLen(n, 0, 0, dr, dc))
		}
	}
	return total / float64(rows*n)
}

// pathLen returns the deterministic route length from (sr, sc) to
// (dr, dc).
func pathLen(n, sr, sc, dr, dc int) int {
	if sr == dr && sc == dc {
		return 0
	}
	row, col := sr, sc
	hops := 0
	for {
		if row == dr && col == dc {
			return hops
		}
		// one hop forward (straight or cross chosen by bit col)
		bit := 1 << uint(col)
		if dr&bit != row&bit {
			row ^= bit
		}
		col = (col + 1) % n
		hops++
		if hops > 3*n {
			panic("routing: path did not terminate")
		}
	}
}
