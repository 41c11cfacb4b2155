package reliable

import (
	"fmt"
	"sort"

	"bfvlsi/internal/detrng"
)

// Mid-run state export and restore, the transport's half of the
// checkpoint contract (see routing.SimState): State captures every
// field the call sequence mutates, in a canonical order, and
// RestoreState rebuilds a transport that continues the schedule
// payload-for-payload identically. The jitter RNG is positioned by its
// draw count (see internal/detrng), so restore re-seeds and
// fast-forwards instead of serializing generator internals.

// PendingState is one unresolved payload: its retransmission-queue
// entry keyed by payload id.
type PendingState struct {
	ID       uint64
	Src, Dst int
	Born     int
	Attempts int
}

// TimerState is one armed fire cycle and the payloads it wakes, in
// arming order (the order BeginCycle replays them).
type TimerState struct {
	Fire int
	IDs  []uint64
}

// State is a transport's complete mid-run state. Slices are canonical:
// Pending ascending by ID, Timers ascending by fire cycle, Accepted and
// Abandoned ascending, Ready and Latencies in their live order.
type State struct {
	Nodes       int
	MeasureFrom int
	NextSeq     []uint64
	Pending     []PendingState
	Timers      []TimerState
	Ready       []uint64
	Accepted    []uint64
	Abandoned   []uint64
	Registered  int
	Latencies   []int
	// Draws is the jitter RNG stream position.
	Draws uint64
}

// State exports the transport's complete state. The result shares no
// memory with the transport.
func (t *Transport) State() *State {
	st := &State{
		Nodes:       t.nodes,
		MeasureFrom: t.MeasureFrom,
		NextSeq:     append([]uint64(nil), t.nextSeq...),
		Ready:       append([]uint64(nil), t.ready...),
		Accepted:    sortedIDs(t.accepted),
		Abandoned:   sortedIDs(t.abandoned),
		Registered:  t.registered,
		Latencies:   append([]int(nil), t.latencies...),
		Draws:       t.rng.Draws(),
	}
	ids := make([]uint64, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st.Pending = make([]PendingState, len(ids))
	for i, id := range ids {
		e := t.pending[id]
		st.Pending[i] = PendingState{ID: id, Src: e.src, Dst: e.dst, Born: e.born, Attempts: e.attempts}
	}
	fires := make([]int, 0, len(t.timers))
	for fire := range t.timers {
		fires = append(fires, fire)
	}
	sort.Ints(fires)
	st.Timers = make([]TimerState, len(fires))
	for i, fire := range fires {
		st.Timers[i] = TimerState{Fire: fire, IDs: append([]uint64(nil), t.timers[fire]...)}
	}
	return st
}

// sortedIDs returns a set's members in ascending order.
func sortedIDs(set map[uint64]struct{}) []uint64 {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RestoreState overwrites the transport's per-run state with st,
// validating it first: a corrupt state cannot silently restore. The
// transport's Config must be the one the state was captured under for
// the continuation to be exact.
func (t *Transport) RestoreState(st *State) error {
	if err := t.checkState(st); err != nil {
		return err
	}
	t.nodes = st.Nodes
	t.MeasureFrom = st.MeasureFrom
	t.nextSeq = append([]uint64(nil), st.NextSeq...)
	t.pending = make(map[uint64]*entry, len(st.Pending))
	for _, p := range st.Pending {
		t.pending[p.ID] = &entry{src: p.Src, dst: p.Dst, born: p.Born, attempts: p.Attempts}
	}
	t.timers = make(map[int][]uint64, len(st.Timers))
	for _, tm := range st.Timers {
		t.timers[tm.Fire] = append([]uint64(nil), tm.IDs...)
	}
	t.ready = append(t.ready[:0], st.Ready...)
	t.accepted = make(map[uint64]struct{}, len(st.Accepted))
	for _, id := range st.Accepted {
		t.accepted[id] = struct{}{}
	}
	t.abandoned = make(map[uint64]struct{}, len(st.Abandoned))
	for _, id := range st.Abandoned {
		t.abandoned[id] = struct{}{}
	}
	t.registered = st.Registered
	t.acceptedN = len(st.Accepted)
	t.abandonedN = len(st.Abandoned)
	t.latencies = append(t.latencies[:0], st.Latencies...)
	t.rng = detrng.Restore(t.cfg.Seed, st.Draws)
	return nil
}

// checkState validates a state's internal consistency: id packing,
// canonical ordering, set disjointness, and the payload conservation
// identity Registered = Pending + Accepted + Abandoned.
func (t *Transport) checkState(st *State) error {
	if st.Nodes < 0 {
		return fmt.Errorf("reliable: restore with %d nodes", st.Nodes)
	}
	if len(st.NextSeq) != st.Nodes {
		return fmt.Errorf("reliable: restore NextSeq has %d flows, want %d", len(st.NextSeq), st.Nodes)
	}
	var sum uint64
	for _, s := range st.NextSeq {
		sum += s
	}
	if sum != uint64(st.Registered) {
		return fmt.Errorf("reliable: restore Registered %d != sum of flow sequences %d", st.Registered, sum)
	}
	if st.Registered != len(st.Pending)+len(st.Accepted)+len(st.Abandoned) {
		return fmt.Errorf("reliable: restore payload conservation violated: %d registered != %d pending + %d accepted + %d abandoned",
			st.Registered, len(st.Pending), len(st.Accepted), len(st.Abandoned))
	}
	if len(st.Latencies) > len(st.Accepted) {
		return fmt.Errorf("reliable: restore has %d latency samples for %d accepted payloads", len(st.Latencies), len(st.Accepted))
	}
	resolved := make(map[uint64]bool, len(st.Accepted)+len(st.Abandoned))
	for _, ids := range [][]uint64{st.Accepted, st.Abandoned} {
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				return fmt.Errorf("reliable: restore id set not strictly ascending at %d", id)
			}
			if resolved[id] {
				return fmt.Errorf("reliable: restore id %d both accepted and abandoned", id)
			}
			resolved[id] = true
		}
	}
	for i := range st.Pending {
		p := &st.Pending[i]
		if i > 0 && st.Pending[i-1].ID >= p.ID {
			return fmt.Errorf("reliable: restore pending not strictly ascending at id %d", p.ID)
		}
		if resolved[p.ID] {
			return fmt.Errorf("reliable: restore id %d both pending and resolved", p.ID)
		}
		if p.Src < 0 || p.Src >= st.Nodes || p.Dst < 0 || p.Dst >= st.Nodes {
			return fmt.Errorf("reliable: restore pending id %d has endpoints (%d,%d) outside %d nodes", p.ID, p.Src, p.Dst, st.Nodes)
		}
		if p.ID != payloadID(p.Src, (p.ID&(1<<36-1))-1) || p.ID&(1<<36-1) == 0 || p.ID&(1<<36-1) > st.NextSeq[p.Src] {
			return fmt.Errorf("reliable: restore pending id %d does not pack (src %d, seq < %d)", p.ID, p.Src, st.NextSeq[p.Src])
		}
		if p.Born < 0 || p.Attempts < 1 {
			return fmt.Errorf("reliable: restore pending id %d born %d attempts %d", p.ID, p.Born, p.Attempts)
		}
	}
	for i := range st.Timers {
		tm := &st.Timers[i]
		if i > 0 && st.Timers[i-1].Fire >= tm.Fire {
			return fmt.Errorf("reliable: restore timers not strictly ascending at cycle %d", tm.Fire)
		}
		if len(tm.IDs) == 0 {
			return fmt.Errorf("reliable: restore timer at cycle %d wakes nothing", tm.Fire)
		}
	}
	return nil
}
