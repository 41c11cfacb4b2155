package routing

// End-to-end reliable-delivery support. Like fault injection (faults.go),
// the simulator stays transport-agnostic: it consults a Transport
// (implemented outside this package, see internal/reliable) at a handful
// of well-defined points - fresh injection, retransmission emission,
// queue-head write-off, destination arrival - and keeps all Result
// accounting itself. With a nil Transport the run is identical to the
// plain simulation, packet for packet.
//
// Copy accounting. Every physical copy entering the system is counted
// once on each side of the strengthened conservation identity:
//
//	TotalInjected + Retransmitted =
//	    TotalDelivered + DuplicatesDropped + Dropped + GaveUp +
//	    Unreachable + Backlog
//
// A fresh injection counts TotalInjected; a retransmitted copy counts
// Retransmitted. The copy's eventual fate is exactly one of: accepted at
// the destination as the first copy of its payload (TotalDelivered),
// arrived after the payload was already accepted (DuplicatesDropped),
// discarded in flight by TTL or the DropDead policy (Dropped), written
// off because the source gave the payload up (GaveUp), refused at
// injection because the destination was dead (Unreachable), or still
// queued when the run ends (Backlog).

// DeliveryVerdict classifies a copy arriving at its destination under a
// reliable transport.
type DeliveryVerdict int

const (
	// DeliverAccept: first copy of a still-wanted payload - the payload
	// is delivered and its pending state cleared.
	DeliverAccept DeliveryVerdict = iota
	// DeliverDuplicate: the payload was already accepted; the copy is
	// discarded and counted in DuplicatesDropped.
	DeliverDuplicate
	// DeliverGaveUp: the source abandoned the payload (retry budget
	// exhausted) before this copy arrived; the copy is discarded and
	// counted in GaveUp.
	DeliverGaveUp
)

// RetransmitCopy is one retransmission the transport asks the simulator
// to inject: a fresh physical copy of payload ID, re-entering the network
// at Src addressed to Dst.
type RetransmitCopy struct {
	ID       uint64
	Src, Dst int // node ids (col*R + row)
}

// Transport is the end-to-end reliability hook. The simulator drives it
// single-threaded in a fixed per-cycle order: BeginCycle first (after
// FaultModel.BeginCycle), then Register for each fresh injection in node
// order, then one Retransmissions call whose copies are resolved with
// Emitted or Deferred, then Abandoned checks at queue heads, then Arrive
// for each copy reaching its destination. Implementations must be
// deterministic given that call order, and must reset all per-run state
// in Reset. A Transport must not be shared by concurrently running
// simulations.
type Transport interface {
	// Reset clears per-run state for a network of the given node count.
	// The simulator calls it once before the first cycle.
	Reset(nodes int)
	// BeginCycle fires the retransmission timers due at the given
	// absolute cycle (0-based, warmup included).
	BeginCycle(cycle int)
	// Register assigns a payload id to a fresh injection from src to dst
	// and arms its first retransmission timer. The simulator calls it for
	// every non-local injection attempt, including copies refused because
	// the destination is dead or (finite buffers) the entry queue is
	// full - the transport's timers then recover payloads the network
	// never even admitted.
	Register(cycle, src, dst int) (id uint64)
	// Retransmissions returns the copies whose timers have fired and that
	// are still pending, in deterministic order. The simulator resolves
	// every returned copy with exactly one Emitted or Deferred call. The
	// slice may be reused: it is valid until the next call, as
	// AdaptiveRouter.Probes's is.
	Retransmissions(cycle int) []RetransmitCopy
	// Emitted reports that the copy entered the system this cycle (or was
	// refused as unreachable, which also consumes an attempt): the
	// transport consumes one retry and re-arms the timer with backoff.
	Emitted(id uint64, cycle int)
	// Deferred reports that the copy could not be injected this cycle
	// (dead source node, or no room in the entry queue); the transport
	// re-offers it next cycle without consuming a retry.
	Deferred(id uint64)
	// Arrive reports a copy reaching its destination and returns the
	// verdict plus, for DeliverAccept, the cycle the payload was first
	// injected (for end-to-end latency accounting).
	Arrive(cycle int, id uint64) (v DeliveryVerdict, born int)
	// Abandoned reports whether the copy's payload has been given up on.
	// The simulator checks it at queue heads (like TTL) and discards
	// abandoned copies into GaveUp.
	Abandoned(id uint64) bool
}
