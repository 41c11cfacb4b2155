package routing

// Fault-aware routing support. The simulator itself stays fault-agnostic:
// it consults a FaultModel (implemented outside this package, see
// internal/faults) for the per-cycle dead sets and applies a Policy when
// the deterministic route runs into a dead link. A module (chip/board) in
// the Section 2.3 packaging is also a failure domain - when it dies, its
// nodes and boundary links die together - and the FaultModel interface is
// wide enough to express that without this package knowing about modules.

import "fmt"

// FaultModel supplies the simulator's view of which nodes and directed
// links are dead during each cycle. The simulator calls BeginCycle exactly
// once per simulated cycle (warmup included, cycle 0 first) and then
// queries the frozen state; implementations may mutate their state only in
// BeginCycle. Between BeginCycle calls a sharded run calls NodeDown and
// LinkDown concurrently from its workers, so they must be safe to call
// concurrently with each other (pure reads of the frozen state are). A
// FaultModel must not be shared by concurrently running simulations.
type FaultModel interface {
	// BeginCycle fixes the fault state for the given absolute cycle
	// (0-based, counting warmup cycles).
	BeginCycle(cycle int)
	// NodeDown reports whether node (id = col*R + row) is dead. Dead
	// nodes inject nothing and deliver nothing; every link into or out
	// of a dead node must also report dead via LinkDown.
	NodeDown(node int) bool
	// LinkDown reports whether the directed link out of node on output
	// out (0 = straight, 1 = cross) is dead. Implementations must fold
	// endpoint node deaths into this answer.
	LinkDown(node, out int) bool
}

// Policy selects how the router reacts to a dead planned output link.
type Policy int

const (
	// Misroute is the fault-aware policy: when the planned output link
	// is dead the packet takes the other output if it is alive - a
	// packet that wanted the cross link takes the straight link and
	// retries the dimension on the next wrap-around pass; a blocked
	// straight move takes the cross link and the flipped bit is
	// re-fixed a pass later. If both outputs are dead the packet waits
	// in place for a repair (or for its TTL to expire).
	Misroute Policy = iota
	// DropDead drops the packet at a dead planned link, with no
	// fallback: the naive baseline the misrouting policy is measured
	// against.
	DropDead
)

func (p Policy) String() string {
	switch p {
	case Misroute:
		return "misroute"
	case DropDead:
		return "drop"
	default:
		return "policy(?)"
	}
}

// ParsePolicy is the inverse of Policy.String; it also accepts
// "dropdead" for DropDead.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "misroute":
		return Misroute, nil
	case "drop", "dropdead":
		return DropDead, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want misroute or drop)", s)
	}
}

// chooseOut picks the output queue at node, whose planned output is
// want, under the fault policy. drop reports that the packet must be
// discarded instead (DropDead with a dead planned link); misrouted
// reports that the fallback output was taken.
func chooseOut(want, node int, fm FaultModel, policy Policy) (out int, drop, misrouted bool) {
	if fm == nil {
		return want, false, false
	}
	if !fm.LinkDown(node, want) {
		return want, false, false
	}
	if policy == DropDead {
		return want, true, false
	}
	other := 1 - want
	if !fm.LinkDown(node, other) {
		return other, false, true
	}
	// Both outputs dead: wait on the planned queue for a repair.
	return want, false, false
}
