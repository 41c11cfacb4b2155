package reliable

import (
	"fmt"
	"math"
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
// memory with the transport. Walking the flows in (src, seq) order
// visits the payload ids in ascending order, so the id lists come out
// canonical without a sort.
func (t *Transport) State() *State {
	st := &State{
		Nodes:       len(t.flows),
		MeasureFrom: t.MeasureFrom,
		NextSeq:     make([]uint64, len(t.flows)),
		Pending:     make([]PendingState, 0, t.registered-t.acceptedN-t.abandonedN),
		Ready:       append([]uint64(nil), t.ready...),
		Accepted:    make([]uint64, 0, t.acceptedN),
		Abandoned:   make([]uint64, 0, t.abandonedN),
		Registered:  t.registered,
		Latencies:   append([]int(nil), t.latencies...),
		Draws:       t.rng.Draws(),
	}
	for src, flow := range t.flows {
		st.NextSeq[src] = uint64(len(flow))
		for seq := range flow {
			e, id := &flow[seq], payloadID(src, uint64(seq))
			switch e.state {
			case pending:
				st.Pending = append(st.Pending, PendingState{ID: id, Src: src, Dst: int(e.dst), Born: int(e.born), Attempts: int(e.attempts)})
			case accepted:
				st.Accepted = append(st.Accepted, id)
			case abandoned:
				st.Abandoned = append(st.Abandoned, id)
			}
		}
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

// RestoreState overwrites the transport's per-run state with st,
// validating it first: a corrupt state cannot silently restore. The
// transport's Config must be the one the state was captured under for
// the continuation to be exact.
func (t *Transport) RestoreState(st *State) error {
	flows, err := checkState(st)
	if err != nil {
		return err
	}
	t.MeasureFrom = st.MeasureFrom
	t.flows = flows
	t.timers = make(map[int][]uint64, len(st.Timers))
	for _, tm := range st.Timers {
		t.timers[tm.Fire] = append([]uint64(nil), tm.IDs...)
	}
	t.ready = append(t.ready[:0], st.Ready...)
	t.registered = st.Registered
	t.acceptedN = len(st.Accepted)
	t.abandonedN = len(st.Abandoned)
	t.latencies = append(t.latencies[:0], st.Latencies...)
	t.rng = detrng.Restore(t.cfg.Seed, st.Draws)
	return nil
}

// stateNames names the slot states in restore errors.
var stateNames = [...]string{free: "free", pending: "pending", accepted: "accepted", abandoned: "abandoned"}

// checkState validates a state's internal consistency - id packing,
// canonical ordering, set disjointness, and the payload conservation
// identity Registered = Pending + Accepted + Abandoned - and builds the
// payload table it describes. The table is sized by NextSeq, so every
// flow is bounded by the registered count, itself bounded by the ids
// the state lists, before anything is summed or allocated. Distinct
// ids that each pack into the table and number Registered in all fill
// every slot.
func checkState(st *State) ([][]slot, error) {
	if st.Nodes < 0 {
		return nil, fmt.Errorf("reliable: restore with %d nodes", st.Nodes)
	}
	if len(st.NextSeq) != st.Nodes {
		return nil, fmt.Errorf("reliable: restore NextSeq has %d flows, want %d", len(st.NextSeq), st.Nodes)
	}
	if st.Registered != len(st.Pending)+len(st.Accepted)+len(st.Abandoned) {
		return nil, fmt.Errorf("reliable: restore payload conservation violated: %d registered != %d pending + %d accepted + %d abandoned",
			st.Registered, len(st.Pending), len(st.Accepted), len(st.Abandoned))
	}
	if len(st.Latencies) > len(st.Accepted) {
		return nil, fmt.Errorf("reliable: restore has %d latency samples for %d accepted payloads", len(st.Latencies), len(st.Accepted))
	}
	left := uint64(st.Registered)
	for src, s := range st.NextSeq {
		if s > left {
			return nil, fmt.Errorf("reliable: restore flow %d sequence %d exceeds the %d registered payloads left after the flows before it", src, s, left)
		}
		left -= s
	}
	if left != 0 {
		return nil, fmt.Errorf("reliable: restore Registered %d != sum of flow sequences %d", st.Registered, uint64(st.Registered)-left)
	}
	table := make([]slot, st.Registered)
	flows := make([][]slot, st.Nodes)
	off := 0
	for src, s := range st.NextSeq {
		flows[src] = table[off : off+int(s) : off+int(s)]
		off += int(s)
	}
	// claim marks id's slot with state, rejecting an id that packs into
	// no slot or whose slot another list already claimed.
	claim := func(id uint64, state uint8) (*slot, error) {
		src, seq := id>>seqBits, id&(1<<seqBits-1)
		if src >= uint64(st.Nodes) || seq == 0 || seq > st.NextSeq[src] {
			return nil, fmt.Errorf("reliable: restore %s id %d does not pack into (src < %d, 1 <= seq <= its flow's NextSeq)", stateNames[state], id, st.Nodes)
		}
		e := &flows[src][seq-1]
		if e.state != free {
			return nil, fmt.Errorf("reliable: restore id %d both %s and %s", id, stateNames[e.state], stateNames[state])
		}
		e.state = state
		return e, nil
	}
	for i := range st.Pending {
		p := &st.Pending[i]
		if i > 0 && st.Pending[i-1].ID >= p.ID {
			return nil, fmt.Errorf("reliable: restore pending not strictly ascending at id %d", p.ID)
		}
		if p.Src < 0 || p.Src >= st.Nodes || p.Dst < 0 || p.Dst >= st.Nodes {
			return nil, fmt.Errorf("reliable: restore pending id %d has endpoints (%d,%d) outside %d nodes", p.ID, p.Src, p.Dst, st.Nodes)
		}
		if p.ID>>seqBits != uint64(p.Src) {
			return nil, fmt.Errorf("reliable: restore pending id %d does not pack source %d", p.ID, p.Src)
		}
		if p.Born < 0 || p.Born > math.MaxInt32 || p.Attempts < 1 || p.Attempts > math.MaxInt32 {
			return nil, fmt.Errorf("reliable: restore pending id %d born %d attempts %d", p.ID, p.Born, p.Attempts)
		}
		e, err := claim(p.ID, pending)
		if err != nil {
			return nil, err
		}
		e.dst, e.born, e.attempts = int32(p.Dst), int32(p.Born), int32(p.Attempts)
	}
	for _, set := range []struct {
		ids   []uint64
		state uint8
	}{{st.Accepted, accepted}, {st.Abandoned, abandoned}} {
		for i, id := range set.ids {
			if i > 0 && set.ids[i-1] >= id {
				return nil, fmt.Errorf("reliable: restore %s ids not strictly ascending at %d", stateNames[set.state], id)
			}
			if _, err := claim(id, set.state); err != nil {
				return nil, err
			}
		}
	}
	for i := range st.Timers {
		tm := &st.Timers[i]
		if i > 0 && st.Timers[i-1].Fire >= tm.Fire {
			return nil, fmt.Errorf("reliable: restore timers not strictly ascending at cycle %d", tm.Fire)
		}
		if len(tm.IDs) == 0 {
			return nil, fmt.Errorf("reliable: restore timer at cycle %d wakes nothing", tm.Fire)
		}
	}
	return flows, nil
}
