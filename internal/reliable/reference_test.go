package reliable

import (
	"reflect"
	"sort"
	"testing"

	"bfvlsi/internal/detrng"
	"bfvlsi/internal/routing"
)

// mapTransport is a deliberately simple reference for Transport: the
// same protocol kept in Go maps keyed by payload id, one heap entry per
// pending payload, with the id sets sorted on export. The differential
// fuzz below drives both through one call sequence and requires them to
// agree after every call.
type mapTransport struct {
	cfg         Config
	measureFrom int
	nodes       int
	nextSeq     []uint64
	pending     map[uint64]*refEntry
	timers      map[int][]uint64
	ready       []uint64
	accepted    map[uint64]bool
	abandoned   map[uint64]bool
	rng         *detrng.Source
	registered  int
	latencies   []int
}

type refEntry struct {
	src, dst, born, attempts int
}

func newMapTransport(cfg Config, nodes, measureFrom int) *mapTransport {
	return &mapTransport{
		cfg: cfg, measureFrom: measureFrom, nodes: nodes,
		nextSeq:   make([]uint64, nodes),
		pending:   map[uint64]*refEntry{},
		timers:    map[int][]uint64{},
		accepted:  map[uint64]bool{},
		abandoned: map[uint64]bool{},
		rng:       detrng.New(cfg.Seed),
	}
}

func (m *mapTransport) arm(id uint64, cycle, attempts int) {
	at := cycle + m.cfg.RTO(attempts)
	if m.cfg.Jitter > 0 {
		at += m.rng.Intn(m.cfg.Jitter + 1)
	}
	m.timers[at] = append(m.timers[at], id)
}

func (m *mapTransport) BeginCycle(cycle int) {
	due := m.timers[cycle]
	delete(m.timers, cycle)
	for _, id := range due {
		e, ok := m.pending[id]
		if !ok {
			continue
		}
		if e.attempts > m.cfg.MaxRetries {
			delete(m.pending, id)
			m.abandoned[id] = true
			continue
		}
		m.ready = append(m.ready, id)
	}
}

func (m *mapTransport) Register(cycle, src, dst int) uint64 {
	id := payloadID(src, m.nextSeq[src])
	m.nextSeq[src]++
	m.pending[id] = &refEntry{src: src, dst: dst, born: cycle, attempts: 1}
	m.registered++
	m.arm(id, cycle, 1)
	return id
}

func (m *mapTransport) Retransmissions(cycle int) []routing.RetransmitCopy {
	var out []routing.RetransmitCopy
	for _, id := range m.ready {
		if e, ok := m.pending[id]; ok {
			out = append(out, routing.RetransmitCopy{ID: id, Src: e.src, Dst: e.dst})
		}
	}
	m.ready = m.ready[:0]
	return out
}

func (m *mapTransport) Emitted(id uint64, cycle int) {
	if e, ok := m.pending[id]; ok {
		e.attempts++
		m.arm(id, cycle, e.attempts)
	}
}

func (m *mapTransport) Deferred(id uint64) {
	if _, ok := m.pending[id]; ok {
		m.ready = append(m.ready, id)
	}
}

func (m *mapTransport) Arrive(cycle int, id uint64) (routing.DeliveryVerdict, int) {
	if m.abandoned[id] {
		return routing.DeliverGaveUp, 0
	}
	e, ok := m.pending[id]
	if !ok {
		return routing.DeliverDuplicate, 0 // accepted before, or never registered
	}
	delete(m.pending, id)
	m.accepted[id] = true
	if e.born >= m.measureFrom {
		m.latencies = append(m.latencies, cycle-e.born+1)
	}
	return routing.DeliverAccept, e.born
}

func (m *mapTransport) Abandoned(id uint64) bool { return m.abandoned[id] }

func (m *mapTransport) Stats() Stats {
	s := Stats{
		Registered: m.registered, Accepted: len(m.accepted),
		Abandoned: len(m.abandoned), Pending: len(m.pending),
		LatencySamples: len(m.latencies),
	}
	sum := 0
	for _, l := range m.latencies {
		sum += l
		s.MaxLatency = max(s.MaxLatency, l)
	}
	if len(m.latencies) > 0 {
		s.AvgLatency = float64(sum) / float64(len(m.latencies))
	}
	return s
}

// latencyPercentile is the nearest-rank q-quantile of the latencies.
func (m *mapTransport) latencyPercentile(q float64) float64 {
	if len(m.latencies) == 0 {
		return 0
	}
	sorted := append([]int(nil), m.latencies...)
	sort.Ints(sorted)
	idx := min(max(int(min(max(q, 0), 1)*float64(len(sorted))+0.5)-1, 0), len(sorted)-1)
	return float64(sorted[idx])
}

func sortedKeys[V any](set map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *mapTransport) State() *State {
	st := &State{
		Nodes: m.nodes, MeasureFrom: m.measureFrom,
		NextSeq:    append(make([]uint64, 0, m.nodes), m.nextSeq...),
		Ready:      append([]uint64(nil), m.ready...),
		Accepted:   sortedKeys(m.accepted),
		Abandoned:  sortedKeys(m.abandoned),
		Registered: m.registered,
		Latencies:  append([]int(nil), m.latencies...),
		Draws:      m.rng.Draws(),
		Pending:    []PendingState{},
		Timers:     []TimerState{},
	}
	for _, id := range sortedKeys(m.pending) {
		e := m.pending[id]
		st.Pending = append(st.Pending, PendingState{ID: id, Src: e.src, Dst: e.dst, Born: e.born, Attempts: e.attempts})
	}
	fires := make([]int, 0, len(m.timers))
	for fire := range m.timers {
		fires = append(fires, fire)
	}
	sort.Ints(fires)
	for _, fire := range fires {
		st.Timers = append(st.Timers, TimerState{Fire: fire, IDs: append([]uint64(nil), m.timers[fire]...)})
	}
	return st
}

// FuzzTransportReference drives Transport and the map reference through
// one call sequence - Register, BeginCycle, Retransmissions resolved by
// Emitted or Deferred, Arrive and Abandoned, on registered and unknown
// ids - with a schedule small enough that payloads are abandoned. After
// every call the return values, Stats, latency percentiles and State
// must agree, a State -> RestoreState -> State round trip must come
// back equal, and one op continues on the restored copy instead.
func FuzzTransportReference(f *testing.F) {
	// Three payloads, one accepted, two abandoned and a late copy
	// written off, across a restore.
	f.Add([]byte{3, 0, 1, 0, 0, 1, 2, 0, 2, 3, 0, 0, 1, 1, 2, 1, 1, 0, 1, 2, 1, 3, 0, 1, 5, 1, 3, 1,
		6, 1, 3, 2, 4, 6, 0, 3, 0, 1, 1, 1, 2, 1, 3, 3})
	// Eight flows with jitter and a larger budget.
	f.Add([]byte{7, 1, 3, 2, 0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 0, 1, 1, 1, 2, 1, 2, 0, 1, 1, 1, 2, 1,
		1, 1, 3, 9, 1, 1, 1, 2, 0, 0, 0, 6, 1, 1, 1, 1, 2, 1, 1, 1, 5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// checkAgainstReference replays data as a call sequence. The first four
// bytes pick the node count (1-8), the timeout (1-4), the retry budget
// (0-3) and the jitter (0-2); every later byte picks an operation and
// the bytes after it its arguments. Only the first 512 bytes count: the
// per-call State checks make a run quadratic in its length.
func checkAgainstReference(t *testing.T, data []byte) {
	data = data[:min(len(data), 512)]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nodes := 1 + next()%8
	cfg := Config{Timeout: 1 + next()%4, MaxRetries: next() % 4, Jitter: next() % 3, Seed: 11}
	const measureFrom = 2
	tr := MustNew(cfg)
	tr.Reset(nodes)
	tr.MeasureFrom = measureFrom
	ref := newMapTransport(cfg, nodes, measureFrom)
	var ids []uint64
	cycle := 0
	// pick returns a registered id, or now and then one never registered.
	pick := func() uint64 {
		b := next()
		if len(ids) == 0 || b%7 == 6 {
			return []uint64{0, payloadID(nodes, 0), payloadID(0, 1<<20), uint64(b) << 36}[b%4]
		}
		return ids[b%len(ids)]
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next() % 7; op {
		case 0:
			src, dst := next()%nodes, next()%nodes
			got, want := tr.Register(cycle, src, dst), ref.Register(cycle, src, dst)
			if got != want {
				t.Fatalf("step %d: Register(%d, %d, %d) = %d, reference %d", step, cycle, src, dst, got, want)
			}
			ids = append(ids, got)
		case 1:
			cycle++
			tr.BeginCycle(cycle)
			ref.BeginCycle(cycle)
		case 2:
			got, want := tr.Retransmissions(cycle), ref.Retransmissions(cycle)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d: Retransmissions(%d) = %v, reference %v", step, cycle, got, want)
			}
			for _, c := range got {
				if next()%3 == 0 {
					tr.Deferred(c.ID)
					ref.Deferred(c.ID)
				} else {
					tr.Emitted(c.ID, cycle)
					ref.Emitted(c.ID, cycle)
				}
			}
		case 3, 4:
			id := pick()
			gv, gb := tr.Arrive(cycle, id)
			wv, wb := ref.Arrive(cycle, id)
			if gv != wv || gb != wb {
				t.Fatalf("step %d: Arrive(%d, %#x) = (%v, %d), reference (%v, %d)", step, cycle, id, gv, gb, wv, wb)
			}
		case 5:
			id := pick()
			if got, want := tr.Abandoned(id), ref.Abandoned(id); got != want {
				t.Fatalf("step %d: Abandoned(%#x) = %v, reference %v", step, id, got, want)
			}
		case 6:
			// Continue on a restored copy.
			c := MustNew(cfg)
			if err := c.RestoreState(tr.State()); err != nil {
				t.Fatalf("step %d: RestoreState: %v", step, err)
			}
			tr = c
		}
		if got, want := tr.Stats(), ref.Stats(); got != want {
			t.Fatalf("step %d: Stats = %+v, reference %+v", step, got, want)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := tr.LatencyPercentile(q), ref.latencyPercentile(q); got != want {
				t.Fatalf("step %d: LatencyPercentile(%v) = %v, reference %v", step, q, got, want)
			}
		}
		st := tr.State()
		if want := ref.State(); !reflect.DeepEqual(st, want) {
			t.Fatalf("step %d: State diverged:\n got %+v\nwant %+v", step, st, want)
		}
		rt := MustNew(cfg)
		if err := rt.RestoreState(st); err != nil {
			t.Fatalf("step %d: RestoreState of a live state: %v", step, err)
		}
		if back := rt.State(); !reflect.DeepEqual(back, st) {
			t.Fatalf("step %d: State round trip diverged:\n got %+v\nwant %+v", step, back, st)
		}
	}
}
