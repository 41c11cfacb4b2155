// Package adaptive implements online fault-aware adaptive routing for the
// wrapped butterfly simulators: the routing.AdaptiveRouter hook. Where the
// static Misroute policy consults the oracle fault state, this router has
// to *learn* link health from the traffic that fails, and spends that
// knowledge three ways.
//
// Detection: every directed link has a consecutive-failure circuit
// breaker. Threshold failed attempts in a row condemn ("open") the link;
// a successful traversal or a successful control-plane probe re-closes
// it. Open links are probed on a deterministic seeded phase every
// ProbeInterval cycles (half-open re-admission) so repaired links return
// to service without a packet having to gamble on them. No wall clock,
// no global randomness: the probe phases are drawn once at Reset from
// Config.Seed, and the run is reproducible.
//
// Detour routing: dimension-order routing has a unique required cross
// link per unfixed address bit, so a policy that merely falls back to the
// straight output (Misroute) retraces the same dead cross link every
// wrap-around pass and never recovers from a permanent fault. This
// router remembers, per packet, the column whose bit a condemned cross
// link kept it from fixing (the blocked marker), and on a later column
// spends one unit of a bounded detour budget to *deliberately* cross on
// a healthy dimension. That flips a row bit, so on the next wrap-around
// pass the packet reaches the blocked column in a different row - and
// needs a different physical cross link, which the fault may not cover.
// Deliberate dimension-shifts buy genuine path diversity, not just
// patience.
//
// Epoch reconfiguration: every Epoch cycles the router snapshots its
// breaker state into a disseminated link-state map (the sources'
// consistent view). The map is used two ways: injections to a
// destination whose every incoming link is condemned are refused upfront
// (Result.UnreachableDetected) instead of wandering to TTL death, and
// route choices avoid one-hop dead ends - nodes whose both outputs the
// map condemns - that oracle-free packets would walk into and die.
//
// A router that has learned nothing - in particular any router on a
// zero-fault run - never deviates from the plan, draws no randomness
// after Reset, and leaves the simulation packet-for-packet identical to
// the baseline.
package adaptive

import (
	"fmt"
	"math/rand"

	"bfvlsi/internal/routing"
)

// Config tunes a Router. The zero value of any field selects the
// DefaultConfig value for that field at New.
type Config struct {
	// Threshold is the number of consecutive failed attempts that opens a
	// link's breaker.
	Threshold int
	// ProbeInterval is the period, in cycles, of the deterministic probe
	// timer of an open breaker (half-open re-admission).
	ProbeInterval int
	// MaxDetours is the per-packet budget of deliberate dimension-shift
	// detours.
	MaxDetours int
	// Epoch is the link-state dissemination period in cycles; every
	// multiple of it the breaker state is snapshotted into the map that
	// drives RejectDest and dead-end avoidance. 0 disables dissemination
	// (breakers and detours still work).
	Epoch int
	// Seed draws the per-link probe phases at Reset.
	Seed int64
}

// DefaultConfig returns the tuning used by the sweeps for dimension n:
// breakers open fast (2 strikes), probes and epochs scale with the
// network diameter, and the detour budget allows a few dimension-shifts
// without letting packets thrash.
func DefaultConfig(n int) Config {
	return Config{
		Threshold:     2,
		ProbeInterval: 2 * n,
		MaxDetours:    3,
		Epoch:         4 * n,
		Seed:          1,
	}
}

// Stats counts the router's learning activity over a run.
type Stats struct {
	// Opened and Reclosed count breaker transitions (a link may open and
	// re-close many times).
	Opened, Reclosed int
	// Probes and ProbesAlive count control-plane probes sent and probes
	// that found the link alive.
	Probes, ProbesAlive int
	// Epochs counts link-state dissemination rounds.
	Epochs int
	// OpenAtEnd is the number of links condemned when the run ended.
	OpenAtEnd int
}

// Router is the routing.AdaptiveRouter implementation. Create one with
// New, hand it to routing.Params.Adaptive, and read Stats afterwards.
// A Router must not be shared by concurrently running simulations; Reset
// makes it reusable sequentially.
type Router struct {
	cfg   Config
	n     int
	rows  int
	cycle int

	consec []int  // consecutive failures per directed link
	open   []bool // breaker state per directed link
	phase  []int  // probe phase per directed link, drawn at Reset
	target []int  // directed link -> head node id

	mapDead []bool // disseminated link-state snapshot of open
	haveMap bool

	stats    Stats
	probeBuf []int
}

var _ routing.AdaptiveRouter = (*Router)(nil)

// New builds a Router; zero Config fields take their DefaultConfig
// values once the dimension is known at Reset. Negative fields, and a
// MaxDetours past routing.MaxDetours, are rejected.
func New(cfg Config) (*Router, error) {
	if cfg.Threshold < 0 || cfg.ProbeInterval < 0 || cfg.MaxDetours < 0 || cfg.Epoch < 0 {
		return nil, fmt.Errorf("adaptive: negative config field %+v", cfg)
	}
	if cfg.MaxDetours > routing.MaxDetours {
		return nil, fmt.Errorf("adaptive: MaxDetours %d exceeds %d", cfg.MaxDetours, routing.MaxDetours)
	}
	return &Router{cfg: cfg}, nil
}

// Reset implements routing.AdaptiveRouter: it sizes the state for the
// n-dimensional wrapped butterfly and draws the probe phases. All
// randomness the router will ever use is consumed here.
func (r *Router) Reset(n, rows int) {
	r.n, r.rows = n, rows
	def := DefaultConfig(n)
	if r.cfg.Threshold == 0 {
		r.cfg.Threshold = def.Threshold
	}
	if r.cfg.ProbeInterval == 0 {
		r.cfg.ProbeInterval = def.ProbeInterval
	}
	if r.cfg.MaxDetours == 0 {
		r.cfg.MaxDetours = def.MaxDetours
	}
	if r.cfg.Seed == 0 {
		r.cfg.Seed = def.Seed
	}
	links := n * rows * 2
	r.consec = make([]int, links)
	r.open = make([]bool, links)
	r.phase = make([]int, links)
	r.target = make([]int, links)
	r.mapDead = make([]bool, links)
	r.haveMap = false
	r.stats = Stats{}
	r.cycle = 0
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for l := range r.phase {
		r.phase[l] = rng.Intn(r.cfg.ProbeInterval)
		node, out := l/2, l%2
		row, col := node%rows, node/rows
		nr := row
		if out == 1 {
			nr = row ^ (1 << uint(col))
		}
		r.target[l] = ((col+1)%n)*rows + nr
	}
}

// BeginCycle implements routing.AdaptiveRouter: it advances the probe
// clock and, on epoch boundaries, disseminates the breaker state into
// the sources' link-state map.
func (r *Router) BeginCycle(cycle int) {
	r.cycle = cycle
	if r.cfg.Epoch > 0 && cycle%r.cfg.Epoch == 0 {
		copy(r.mapDead, r.open)
		r.haveMap = true
		r.stats.Epochs++
	}
}

// Probes implements routing.AdaptiveRouter: the open links whose seeded
// probe timer fires this cycle. The returned slice is reused between
// calls.
func (r *Router) Probes() []int {
	r.probeBuf = r.probeBuf[:0]
	for l, o := range r.open {
		if o && (r.cycle+r.phase[l])%r.cfg.ProbeInterval == 0 {
			r.probeBuf = append(r.probeBuf, l)
		}
	}
	return r.probeBuf
}

// ProbeResult implements routing.AdaptiveRouter: a live probe re-closes
// the breaker (half-open re-admission), a dead one leaves it open.
func (r *Router) ProbeResult(link int, alive bool) {
	r.stats.Probes++
	if alive {
		r.stats.ProbesAlive++
		if r.open[link] {
			r.open[link] = false
			r.stats.Reclosed++
		}
		r.consec[link] = 0
	}
}

// ObserveSuccess implements routing.AdaptiveRouter.
func (r *Router) ObserveSuccess(link int) {
	r.consec[link] = 0
	if r.open[link] {
		// The simulator moved a packet over a link the router had
		// condemned (breakers do not block the physical link): the
		// condemnation was stale.
		r.open[link] = false
		r.stats.Reclosed++
	}
}

// ObserveFailure implements routing.AdaptiveRouter.
func (r *Router) ObserveFailure(link int) {
	r.consec[link]++
	if !r.open[link] && r.consec[link] >= r.cfg.Threshold {
		r.open[link] = true
		r.stats.Opened++
	}
}

// score ranks a directed link for a packet to dst: 0 usable, 1 usable
// but leading into a one-hop dead end the link-state map condemns, 2
// condemned by its own breaker. Lower is better; ties go to the planned
// output.
func (r *Router) score(l, dst int) int {
	if r.open[l] {
		return 2
	}
	if r.haveMap {
		t := r.target[l]
		if t != dst && r.mapDead[t*2] && r.mapDead[t*2+1] {
			return 1
		}
	}
	return 0
}

// Choose implements routing.AdaptiveRouter. It is a pure read: the
// simulator may discard the Decision (credit denial) and call again
// later.
func (r *Router) Choose(h routing.Hop) routing.Decision {
	col := h.Node / r.rows
	ss := r.score(h.Node*2, h.Dst)
	cs := r.score(h.Node*2+1, h.Dst)
	d := routing.Decision{Out: h.Want, Blocked: h.Blocked}
	if h.Want == 1 {
		// Planned cross: take it unless the straight output outranks it,
		// in which case detour straight and remember the blocked column
		// so a later hop may spend a deliberate dimension-shift on it.
		if cs <= ss {
			d.Out = 1
		} else {
			d.Out = 0
			d.Detour = true
			d.Blocked = col
		}
	} else {
		// Planned straight. A packet carrying a blocked-column marker
		// spends one unit of detour budget to cross here deliberately if
		// this cross is clean: that flips row bit col, so the next
		// wrap-around pass reaches the blocked column in a different row
		// and retries the bit over a different physical link.
		if h.Blocked >= 0 && h.Blocked != col && h.Detours < r.cfg.MaxDetours && cs == 0 {
			d.Out = 1
			d.Detour = true
			d.Deliberate = true
			d.Blocked = -1
		} else if ss <= cs {
			d.Out = 0
		} else {
			// Forced off the straight output: crossing breaks bit col,
			// which plain dimension-order routing re-fixes on a later
			// pass - no marker needed.
			d.Out = 1
			d.Detour = true
		}
	}
	if d.Out == 1 && d.Blocked == col {
		// Any cross taken at the blocked column fixes its bit.
		d.Blocked = -1
	}
	return d
}

// RejectDest implements routing.AdaptiveRouter: true when the
// disseminated link-state map condemns every link into dst.
func (r *Router) RejectDest(dst int) bool {
	if !r.haveMap {
		return false
	}
	dr, dc := dst%r.rows, dst/r.rows
	prev := (dc - 1 + r.n) % r.n
	straightSrc := prev*r.rows + dr
	crossSrc := prev*r.rows + (dr ^ (1 << uint(prev)))
	return r.mapDead[straightSrc*2] && r.mapDead[crossSrc*2+1]
}

// Stats returns the learning counters; OpenAtEnd reflects the breaker
// state at the time of the call.
func (r *Router) Stats() Stats {
	s := r.stats
	s.OpenAtEnd = 0
	for _, o := range r.open {
		if o {
			s.OpenAtEnd++
		}
	}
	return s
}
