package routing

// Adaptive fault-aware routing support. Where the static Policy reacts to
// the oracle fault state handed to it (faults.go), an AdaptiveRouter has
// to *learn* which links are dead from the traffic that fails on them,
// and may spend that knowledge three ways: picking outputs (including
// bounded detours that deliberately break an already-fixed dimension so a
// blocked bit can be retried over a different physical link on a later
// wrap-around pass), re-planning packets already queued behind a link it
// has since condemned, and refusing injections whose destination its
// disseminated link-state map says is cut off. The simulator stays
// belief-agnostic: it asks the router for decisions, answers its
// control-plane probes from the oracle fault state, and feeds it the
// outcome of every real link attempt. With a router that never deviates
// from the plan - in particular any router before its first failure
// observation - the run is identical to the plain simulation, packet for
// packet.

// Hop describes one packet at one switch for AdaptiveRouter.Choose: the
// position, the planned dimension-order output, and the packet's adaptive
// state (detour budget spent, blocked-column marker).
type Hop struct {
	// Node is the current node id (col*R + row).
	Node int
	// Want is the planned output under dimension-order routing
	// (0 = straight, 1 = cross).
	Want int
	// Dst is the destination node id.
	Dst int
	// Detours is the number of deliberate detours the packet has taken so
	// far (the router must stop granting them at its budget).
	Detours int
	// Blocked is the column whose bit the packet failed to fix because
	// the needed cross link was condemned, or -1. The router sets it via
	// Decision.Blocked and uses it to grant a deliberate dimension-shift.
	Blocked int
}

// Decision is the adaptive router's verdict for one Hop.
type Decision struct {
	// Out is the chosen output (0 = straight, 1 = cross).
	Out int
	// Blocked is the packet's updated blocked-column marker.
	Blocked int
	// Detour reports that Out differs from the planned output; the
	// simulator counts it in Result.Detours.
	Detour bool
	// Deliberate reports that the detour was a budget-consuming
	// dimension-shift (not a forced fallback); the simulator charges it
	// against the packet's budget.
	Deliberate bool
}

// AdaptiveRouter is the online fault-aware routing hook. The simulator
// drives it single-threaded in a fixed per-cycle order: BeginCycle (after
// FaultModel.BeginCycle and Transport.BeginCycle), then one Probes call
// whose links are each answered with ProbeResult from the oracle link
// state (a control-plane probe message), then Choose/RejectDest during
// injection, re-plan, and arrival processing, with ObserveSuccess and
// ObserveFailure fed from every real link attempt during traversal.
// Choose and RejectDest must be pure reads of the router's state: the
// simulator may call them for packets that then fail a buffer-credit
// check and discard the Decision. Implementations must be deterministic
// given the call order and must not draw randomness outside Reset. A
// router must not be shared by concurrently running simulations.
type AdaptiveRouter interface {
	// Reset clears per-run state for the n-dimensional wrapped butterfly
	// (R = 2^n rows). The simulator calls it once before the first cycle.
	Reset(n, rows int)
	// BeginCycle starts the given absolute cycle (0-based, warmup
	// included): breakers time forward, and on dissemination epochs the
	// router snapshots its link-state map.
	BeginCycle(cycle int)
	// Probes returns the directed links (id = node*2 + out) the router
	// wants probed this cycle - its open breakers whose deterministic
	// probe timer is due. The simulator answers every returned link with
	// exactly one ProbeResult call. The slice may be reused: it is
	// valid until the next call.
	Probes() []int
	// ProbeResult delivers the oracle outcome of a probe: alive re-closes
	// the breaker (half-open re-admission), dead leaves it open.
	ProbeResult(link int, alive bool)
	// Choose picks the output for one packet at one switch.
	Choose(h Hop) Decision
	// RejectDest reports whether the router's disseminated link-state map
	// says dst is unreachable (every incident link condemned). The
	// simulator refuses such injections as Unreachable (counted in
	// UnreachableDetected) instead of letting them wander to TTL death.
	RejectDest(dst int) bool
	// ObserveSuccess reports a packet crossed the link this cycle.
	ObserveSuccess(link int)
	// ObserveFailure reports an attempt on the link failed this cycle
	// (the packet at its head could not move because the link is dead).
	ObserveFailure(link int)
}

// plannedOut returns the dimension-order output for a packet bound for
// row dstRow at (row, col): cross iff address bit col disagrees.
func plannedOut(dstRow, row, col int) int {
	if dstRow&(1<<uint(col)) != row&(1<<uint(col)) {
		return 1
	}
	return 0
}

// route picks the output queue for pk at (row, col): the adaptive router
// when one is attached, else the static fault policy. It mutates pk's
// adaptive state (blocked marker, detour budget) and returns the
// simulator-side accounting flags. drop is only ever true under the
// static DropDead policy.
func route(pk *packet, row, col, rows int, p *Params) (out int, drop, mis, detour bool) {
	want := plannedOut(int(pk.dstRow), row, col)
	if p.Adaptive == nil {
		out, drop, mis = chooseOut(want, col*rows+row, p.Faults, p.Policy)
		return out, drop, mis, false
	}
	d := p.Adaptive.Choose(Hop{
		Node:    col*rows + row,
		Want:    want,
		Dst:     int(pk.dstCol)*rows + int(pk.dstRow),
		Detours: int(pk.detours),
		Blocked: int(pk.blocked),
	})
	pk.blocked = int8(d.Blocked)
	if d.Deliberate {
		pk.detours++
	}
	return d.Out, false, false, d.Detour
}

// destCut reports whether every link into the destination (dr, dc) is
// dead under the oracle fault model: no packet injected now can ever
// reach it, so the simulator refuses the injection as Unreachable
// (UnreachableCut) instead of letting the packet wander - with TTL 0 it
// would otherwise occupy the network forever. Each node has exactly two
// incoming links, from the straight and cross outputs of the previous
// column.
func destCut(fm FaultModel, n, rows, dr, dc int) bool {
	if fm == nil {
		return false
	}
	prev := (dc - 1 + n) % n
	straightSrc := prev*rows + dr
	crossSrc := prev*rows + (dr ^ (1 << uint(prev)))
	return fm.LinkDown(straightSrc, 0) && fm.LinkDown(crossSrc, 1)
}

// runProbes answers the router's control-plane probes for this cycle
// from the oracle link state.
func runProbes(ad AdaptiveRouter, fm FaultModel) {
	for _, l := range ad.Probes() {
		alive := fm == nil || !fm.LinkDown(l/2, l%2)
		ad.ProbeResult(l, alive)
	}
}
