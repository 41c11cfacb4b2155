package adaptive

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/par"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

// Transport selects the end-to-end transport a sweep cell attaches.
type Transport int

const (
	// NoTransport runs the bare simulator: the plain degradation sweep.
	NoTransport Transport = iota
	// Observe attaches a transport whose first timer fires after the run
	// ends: it never retransmits and leaves the run packet-for-packet
	// identical to NoTransport, but measures payload delivery and latency.
	Observe
	// Retransmit attaches a live reliable transport.
	Retransmit
)

// Mode is one recovery strategy under comparison: a static dead-link
// policy or the adaptive router, and the transport riding along.
type Mode struct {
	Name   string
	Policy routing.Policy
	// Adaptive attaches a Router (Policy is then ignored by the
	// simulator).
	Adaptive  bool
	Transport Transport
}

// ReliableModes returns the four strategies the E22 retransmission
// sweeps compare: the two static policies, each alone and combined with
// retransmission.
func ReliableModes() []Mode {
	return []Mode{
		{Name: "drop", Policy: routing.DropDead, Transport: Observe},
		{Name: "misroute", Policy: routing.Misroute, Transport: Observe},
		{Name: "drop+retx", Policy: routing.DropDead, Transport: Retransmit},
		{Name: "misroute+retx", Policy: routing.Misroute, Transport: Retransmit},
	}
}

// StandardModes returns the four strategies the E23 sweeps compare: the
// two static policies, the adaptive router alone, and the adaptive
// router with retransmission - the full recovery stack.
func StandardModes() []Mode {
	return []Mode{
		{Name: "drop", Policy: routing.DropDead, Transport: Observe},
		{Name: "misroute", Policy: routing.Misroute, Transport: Observe},
		{Name: "adaptive", Adaptive: true, Transport: Observe},
		{Name: "adaptive+retx", Adaptive: true, Transport: Retransmit},
	}
}

// Cell is one measured cell of a sweep: a mode at one fault level. Link
// sweeps fill Rate and DeadLinks (permanent faults) or Outages
// (repairable ones); module-kill sweeps fill Scheme, Killed, DeadNodes
// and DeadNodeFrac.
type Cell struct {
	Mode   string
	Scheme string
	// Rate is the independent per-link probability of a permanent fault,
	// or for outage sweeps the expected steady-state fraction of links
	// down.
	Rate         float64
	DeadLinks    int
	Outages      int
	Killed       int
	DeadNodes    int
	DeadNodeFrac float64
	Result       *routing.Result
	// Router holds the adaptive router's learning counters (zero for
	// static modes).
	Router Stats
	// Payloads is the transport's payload-level summary (zero without a
	// transport).
	Payloads reliable.Stats
	// Goodput is accepted payloads per node per measured cycle (equal to
	// Result.Throughput: duplicates are never counted delivered).
	Goodput float64
	// P99Latency is the 0.99-quantile end-to-end delivery latency over
	// payloads first injected inside the measurement window (zero
	// without a transport).
	P99Latency float64
	// Overhead is Retransmitted / TotalInjected: the fraction of extra
	// copies the reliability layer pushed into the network.
	Overhead float64
	Err      error
}

// Per-cell router and transport seeds are cfg.Seed + idx*stride +
// offset, idx the cell's mode-major index. Sweeps whose mode list
// includes an Adaptive mode use the E23 strides, all others the E22
// strides. Static-policy cells with NoTransport or Observe do not depend
// on the seed at all.
func cellSeeds(modes []Mode, e22, e23 [2]int64) [2]int64 {
	for _, m := range modes {
		if m.Adaptive {
			return e23
		}
	}
	return e22
}

// Sweep measures every mode at every link fault level. With outage 0 the
// faults are permanent: each link dies independently with the level's
// rate. With outage > 0 the level schedules random link outages of that
// many cycles so that the expected fraction of links down is the rate -
// the repairable regime where a retry that fires after the repair goes
// through. Fault plans are seeded from base.Seed and the rate index, so
// all modes of a level see the same faults. Results are mode-major in
// input order.
//
// With deterministic routing a retransmitted copy retraces its
// predecessor's path, so against permanent holes retries recover little
// beyond what the misroute policy already saves; the adaptive router's
// detours change the physical path instead.
func Sweep(base routing.Params, acfg Config, rcfg reliable.Config, modes []Mode, rates []float64, outage int) []Cell {
	seeds := cellSeeds(modes, [2]int64{7_000_003, 13}, [2]int64{11_000_027, 19})
	out := make([]Cell, len(modes)*len(rates))
	// A cell's error stays in its Cell.Err, so no call fails and For
	// cannot.
	_ = par.For(context.Background(), len(out), runtime.GOMAXPROCS(0), func(_ context.Context, idx int) error {
		mi, ri := idx/len(rates), idx%len(rates)
		c := &out[idx]
		c.Mode, c.Rate = modes[mi].Name, rates[ri]
		faultSeed := base.Seed + int64(ri)*1_000_003 + 1
		err := c.run(base, acfg, rcfg, modes[mi], int64(idx)*seeds[0]+seeds[1], func(plan *faults.Plan) error {
			if outage < 0 {
				return fmt.Errorf("negative outage duration %d", outage)
			}
			if outage == 0 {
				var err error
				c.DeadLinks, err = plan.AddRandomLinkFaults(c.Rate, faultSeed)
				return err
			}
			// Count outages so that the expected number of links
			// concurrently down is rate * links.
			horizon := base.Warmup + base.Cycles
			c.Outages = int(c.Rate*float64(2*plan.Nodes())*float64(horizon)/float64(outage) + 0.5)
			if c.Outages == 0 {
				return nil
			}
			return plan.AddRandomTransientLinkFaults(c.Outages, horizon, outage, faultSeed)
		})
		if err != nil {
			c.Err = fmt.Errorf("adaptive: mode %s rate %g: %w", c.Mode, c.Rate, err)
		}
		return nil
	})
	return out
}

// ModuleKillSweep is the packaging comparison: it fails k whole modules
// (k ranging over kills) under each scheme (row, nucleus, naive - see
// faults.StandardSchemes) and measures every mode on the same wreckage.
// The module draw is seeded per kill count and shared across schemes and
// modes, so cells differ only in what a module is and how the survivors
// route. Results are ordered mode-major, then scheme, then kill count.
//
// The Theorem 2.1 nucleus modules are small failure domains, so killing
// the same number of modules removes a smaller slice of the machine; E23
// shows the adaptive router recovering goodput there that deterministic
// retries cannot.
func ModuleKillSweep(base routing.Params, acfg Config, rcfg reliable.Config, modes []Mode, schemes []faults.Scheme, kills []int) []Cell {
	seeds := cellSeeds(modes, [2]int64{9_000_011, 17}, [2]int64{13_000_021, 29})
	out := make([]Cell, len(modes)*len(schemes)*len(kills))
	// A cell's error stays in its Cell.Err, so no call fails and For
	// cannot.
	_ = par.For(context.Background(), len(out), runtime.GOMAXPROCS(0), func(_ context.Context, idx int) error {
		mi := idx / (len(schemes) * len(kills))
		si := idx / len(kills) % len(schemes)
		ki := idx % len(kills)
		sc := schemes[si]
		c := &out[idx]
		c.Mode, c.Scheme, c.Killed = modes[mi].Name, sc.Name, kills[ki]
		err := c.run(base, acfg, rcfg, modes[mi], int64(idx)*seeds[0]+seeds[1], func(plan *faults.Plan) error {
			if c.Killed < 0 || c.Killed > sc.NumModules {
				return fmt.Errorf("cannot kill %d of %d modules", c.Killed, sc.NumModules)
			}
			for _, m := range faults.PickModules(sc.NumModules, c.Killed, base.Seed+int64(ki)*2_000_003+7) {
				killed, err := plan.AddModuleFault(sc.ModuleOf, m, 0, 0)
				if err != nil {
					return err
				}
				c.DeadNodes += killed
			}
			c.DeadNodeFrac = float64(c.DeadNodes) / float64(plan.Nodes())
			return nil
		})
		if err != nil {
			c.Err = fmt.Errorf("adaptive: mode %s scheme %s kills %d: %w", c.Mode, c.Scheme, c.Killed, err)
		}
		return nil
	})
	return out
}

// run measures one cell: it builds the fault plan through addFaults,
// attaches the mode's router and transport (seeded with cellSeed), runs
// the simulation, audits copy-exact conservation, and fills the derived
// values. base must carry no hooks: a caller's Faults, Reliable or
// Adaptive would be shared by every concurrent cell. A faulted cell with
// base.TTL 0 gets faults.DefaultTTL, so trapped packets are dropped and
// accounted rather than pooling in Backlog; a fault-free cell keeps TTL
// 0 and reproduces the fault-free baseline exactly.
func (c *Cell) run(base routing.Params, acfg Config, rcfg reliable.Config, m Mode, cellSeed int64, addFaults func(*faults.Plan) error) error {
	if base.Faults != nil || base.Reliable != nil || base.Adaptive != nil {
		return errors.New("base params must not carry Faults, Reliable, or Adaptive")
	}
	plan, err := faults.NewPlan(base.N)
	if err != nil {
		return err
	}
	if err := addFaults(plan); err != nil {
		return err
	}
	p := base
	p.Faults = plan
	if p.TTL == 0 && plan.NumEvents() > 0 {
		p.TTL = faults.DefaultTTL(base.N)
	}
	var rt *Router
	if m.Adaptive {
		cfg := acfg
		cfg.Seed += cellSeed
		if rt, err = New(cfg); err != nil {
			return err
		}
		p.Adaptive = rt
	} else {
		p.Policy = m.Policy
	}
	var tr *reliable.Transport
	if m.Transport != NoTransport {
		cfg := rcfg
		if m.Transport == Observe {
			cfg = reliable.Config{Timeout: base.Warmup + base.Cycles + 1}
		}
		cfg.Seed = rcfg.Seed + cellSeed
		if tr, err = reliable.New(cfg); err != nil {
			return err
		}
		tr.MeasureFrom = base.Warmup
		p.Reliable = tr
	}
	if c.Result, err = routing.Simulate(p); err != nil {
		return err
	}
	if err := c.Result.CheckConservation(); err != nil {
		return err
	}
	c.Goodput = c.Result.Throughput
	if c.Result.TotalInjected > 0 {
		c.Overhead = float64(c.Result.Retransmitted) / float64(c.Result.TotalInjected)
	}
	if rt != nil {
		c.Router = rt.Stats()
	}
	if tr != nil {
		c.Payloads = tr.Stats()
		c.P99Latency = tr.LatencyPercentile(0.99)
	}
	return nil
}
