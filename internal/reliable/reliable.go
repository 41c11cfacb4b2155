// Package reliable layers end-to-end reliable delivery over the wrapped
// butterfly routing simulators (both the unbounded-FIFO and the
// virtual-channel/backpressure mode). It is the recovery counterpart of
// internal/faults: where a fault plan quantifies the damage a packaged
// machine takes, the reliable transport quantifies what recovering from
// that damage costs in goodput, delivery latency, and retransmission
// overhead.
//
// The model is a deterministic simplification of a classic ARQ transport.
// Every source node keeps a per-flow sequence counter (flow = source
// node) and a retransmission queue of pending payloads. A payload is
// registered at first injection and a timer armed; if the timer fires
// before the destination accepts a copy, the source re-injects a fresh
// copy and re-arms the timer with exponential backoff (base timeout
// doubled per attempt, optionally capped) plus a seeded uniform jitter,
// until a retry budget is exhausted - then the source gives the payload
// up and every copy still in flight is written off when it next surfaces.
// Destinations remember every accepted payload and suppress duplicate
// copies, so delivered goodput counts each payload exactly once.
//
// A Transport implements routing.Transport. All state is a pure function
// of the configuration seed and the simulator's (deterministic) call
// sequence: same seed, same run. Reusing a transport for a second run
// resets automatically; a single transport must not be shared by
// concurrently running simulations.
package reliable

import (
	"fmt"
	"sort"

	"bfvlsi/internal/detrng"
	"bfvlsi/internal/routing"
)

// Transport implements routing.Transport.
var _ routing.Transport = (*Transport)(nil)

// Config tunes the retransmission schedule.
type Config struct {
	// Timeout is the base retransmission timeout in cycles: the delay
	// from a payload's first emission to its first retry. Must be >= 1.
	Timeout int
	// MaxRetries is the retry budget per payload: after MaxRetries
	// retransmissions the next timer firing abandons the payload.
	// 0 means never retransmit (the transport still tracks delivery,
	// suppresses duplicates, and classifies give-ups).
	MaxRetries int
	// Jitter adds a uniform seeded draw from [0, Jitter] cycles to every
	// armed timer, de-synchronizing retry bursts. 0 disables jitter.
	Jitter int
	// MaxTimeout, if positive, caps the exponential backoff. It must not
	// be smaller than Timeout.
	MaxTimeout int
	// Seed drives the jitter draws (same seed, same schedule).
	Seed int64
}

// DefaultConfig returns a schedule suited to dimension n under moderate
// load: base timeout 8n (several times the fault-free mean latency of
// ~1.5n), retry budget 3, jitter up to n cycles.
func DefaultConfig(n int) Config {
	return Config{Timeout: 8 * n, MaxRetries: 3, Jitter: n, Seed: 1}
}

// Validate reports the first nonsensical field combination.
func (c Config) Validate() error {
	if c.Timeout < 1 {
		return fmt.Errorf("reliable: timeout %d must be >= 1 cycle", c.Timeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("reliable: retry budget %d is negative", c.MaxRetries)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("reliable: jitter %d is negative", c.Jitter)
	}
	if c.MaxTimeout < 0 {
		return fmt.Errorf("reliable: timeout cap %d is negative", c.MaxTimeout)
	}
	if c.MaxTimeout > 0 && c.MaxTimeout < c.Timeout {
		return fmt.Errorf("reliable: timeout cap %d below base timeout %d", c.MaxTimeout, c.Timeout)
	}
	return nil
}

// RTO returns the retransmission timeout armed after emitting copy
// number attempts (1 = the original injection): Timeout << (attempts-1),
// capped by MaxTimeout when set. Jitter is added on top at arming time.
func (c Config) RTO(attempts int) int {
	shift := attempts - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 30 {
		shift = 30 // avoid overflow; any real cap bites far earlier
	}
	d := c.Timeout << uint(shift)
	if c.MaxTimeout > 0 && d > c.MaxTimeout {
		d = c.MaxTimeout
	}
	return d
}

// entry is one pending payload in a source's retransmission queue.
type entry struct {
	src, dst int
	born     int // first-injection cycle
	attempts int // copies emitted so far (1 = original)
}

// Transport is the end-to-end reliable transport. Attach one via
// routing.Params.Reliable; the zero value is not usable, construct with
// New.
type Transport struct {
	cfg Config

	// MeasureFrom gates the latency statistics: only payloads first
	// injected at cycle >= MeasureFrom are sampled (set it to the run's
	// warmup to match the simulator's measurement window; 0 samples
	// everything).
	MeasureFrom int

	nodes     int
	nextSeq   []uint64
	pending   map[uint64]*entry
	timers    map[int][]uint64 // fire cycle -> payload ids, arming order
	ready     []uint64         // timers fired, emission pending
	accepted  map[uint64]struct{}
	abandoned map[uint64]struct{}
	// rng draws the jitter and counts its draws, so a checkpoint can
	// record the stream position (see internal/detrng).
	rng *detrng.Source

	registered, acceptedN, abandonedN int
	latencies                         []int
}

// New returns a transport with the given schedule.
func New(cfg Config) (*Transport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Transport{cfg: cfg}
	t.Reset(0)
	return t, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Transport {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the transport's schedule.
func (t *Transport) Config() Config { return t.cfg }

// Reset implements routing.Transport: it clears all per-run state and
// re-seeds the jitter source, so a reused transport replays identically.
func (t *Transport) Reset(nodes int) {
	t.nodes = nodes
	t.nextSeq = make([]uint64, nodes)
	t.pending = make(map[uint64]*entry)
	t.timers = make(map[int][]uint64)
	t.ready = t.ready[:0]
	t.accepted = make(map[uint64]struct{})
	t.abandoned = make(map[uint64]struct{})
	t.rng = detrng.New(t.cfg.Seed)
	t.registered, t.acceptedN, t.abandonedN = 0, 0, 0
	t.latencies = t.latencies[:0]
}

// id packs (src, seq) into a nonzero payload id: src < n*2^n <= 14*2^14 <
// 2^18 and seq is bounded by injections per flow, far below 2^36.
func payloadID(src int, seq uint64) uint64 {
	return uint64(src)<<36 | (seq + 1)
}

// BeginCycle implements routing.Transport: timers due this cycle either
// move their payload to the ready queue (budget remaining) or abandon it.
func (t *Transport) BeginCycle(cycle int) {
	due, ok := t.timers[cycle]
	if !ok {
		return
	}
	delete(t.timers, cycle)
	for _, id := range due {
		e, ok := t.pending[id]
		if !ok {
			continue // accepted since arming; stale timer
		}
		if e.attempts > t.cfg.MaxRetries {
			delete(t.pending, id)
			t.abandoned[id] = struct{}{}
			t.abandonedN++
			continue
		}
		t.ready = append(t.ready, id)
	}
}

// arm schedules the next timer for id after emitting copy number
// attempts at the given cycle.
func (t *Transport) arm(id uint64, cycle, attempts int) {
	at := cycle + t.cfg.RTO(attempts)
	if t.cfg.Jitter > 0 {
		at += t.rng.Intn(t.cfg.Jitter + 1)
	}
	t.timers[at] = append(t.timers[at], id)
}

// Register implements routing.Transport.
func (t *Transport) Register(cycle, src, dst int) uint64 {
	seq := t.nextSeq[src]
	t.nextSeq[src]++
	id := payloadID(src, seq)
	t.pending[id] = &entry{src: src, dst: dst, born: cycle, attempts: 1}
	t.registered++
	t.arm(id, cycle, 1)
	return id
}

// Retransmissions implements routing.Transport.
func (t *Transport) Retransmissions(cycle int) []routing.RetransmitCopy {
	if len(t.ready) == 0 {
		return nil
	}
	out := make([]routing.RetransmitCopy, 0, len(t.ready))
	for _, id := range t.ready {
		e, ok := t.pending[id]
		if !ok {
			continue // accepted while waiting for emission
		}
		out = append(out, routing.RetransmitCopy{ID: id, Src: e.src, Dst: e.dst})
	}
	t.ready = t.ready[:0]
	return out
}

// Emitted implements routing.Transport.
func (t *Transport) Emitted(id uint64, cycle int) {
	e, ok := t.pending[id]
	if !ok {
		return
	}
	e.attempts++
	t.arm(id, cycle, e.attempts)
}

// Deferred implements routing.Transport: the copy is re-offered next
// cycle without consuming a retry.
func (t *Transport) Deferred(id uint64) {
	if _, ok := t.pending[id]; ok {
		t.ready = append(t.ready, id)
	}
}

// Arrive implements routing.Transport.
func (t *Transport) Arrive(cycle int, id uint64) (routing.DeliveryVerdict, int) {
	if _, ok := t.accepted[id]; ok {
		return routing.DeliverDuplicate, 0
	}
	if _, ok := t.abandoned[id]; ok {
		return routing.DeliverGaveUp, 0
	}
	e, ok := t.pending[id]
	if !ok {
		// Unknown id: only reachable if the simulator hands back an id it
		// never registered; treat as a duplicate so nothing is counted
		// delivered twice.
		return routing.DeliverDuplicate, 0
	}
	delete(t.pending, id)
	t.accepted[id] = struct{}{}
	t.acceptedN++
	if e.born >= t.MeasureFrom {
		t.latencies = append(t.latencies, cycle-e.born+1)
	}
	return routing.DeliverAccept, e.born
}

// Abandoned implements routing.Transport.
func (t *Transport) Abandoned(id uint64) bool {
	_, ok := t.abandoned[id]
	return ok
}

// Stats summarizes the transport's payload-level view of a finished run.
// It complements routing.Result's copy-level counters: Registered
// payloads end Accepted, Abandoned, or Pending, exactly.
type Stats struct {
	// Registered counts payloads that entered a retransmission queue
	// (local src == dst deliveries are not registered).
	Registered int
	// Accepted counts payloads whose first copy reached the destination.
	Accepted int
	// Abandoned counts payloads given up after exhausting the budget.
	Abandoned int
	// Pending counts payloads still unresolved when the run ended.
	Pending int
	// LatencySamples, AvgLatency, and MaxLatency describe end-to-end
	// delivery latency (first injection to acceptance, inclusive) of
	// payloads first injected at cycle >= MeasureFrom.
	LatencySamples int
	AvgLatency     float64
	MaxLatency     int
}

// Stats returns the payload-level summary.
func (t *Transport) Stats() Stats {
	s := Stats{
		Registered:     t.registered,
		Accepted:       t.acceptedN,
		Abandoned:      t.abandonedN,
		Pending:        len(t.pending),
		LatencySamples: len(t.latencies),
	}
	sum := 0
	for _, l := range t.latencies {
		sum += l
		if l > s.MaxLatency {
			s.MaxLatency = l
		}
	}
	if len(t.latencies) > 0 {
		s.AvgLatency = float64(sum) / float64(len(t.latencies))
	}
	return s
}

// LatencyPercentile returns the q-quantile (0 <= q <= 1, nearest-rank) of
// the recorded end-to-end delivery latencies, or 0 with no samples.
func (t *Transport) LatencyPercentile(q float64) float64 {
	if len(t.latencies) == 0 {
		return 0
	}
	sorted := append([]int(nil), t.latencies...)
	sort.Ints(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx])
}
