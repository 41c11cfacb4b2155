package wire

import (
	"fmt"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/routing"
)

// Caps on routing request sizes; they keep a single cached artifact's
// compute bounded, which matters once specs arrive over the network.
const (
	// MaxRouteCycles bounds warmup + measured cycles.
	MaxRouteCycles = 1 << 20
	// maxBufferLimit bounds the per-VC queue capacity.
	maxBufferLimit = 1 << 16
)

// RouteSpec is the wire form of a routing-simulation request: the
// Params subset that is plain data (the hook interfaces - transport,
// adaptive router - are not serializable) plus the traffic pattern and
// an optional fault plan recipe.
type RouteSpec struct {
	N           int
	Lambda      float64
	Warmup      int
	Cycles      int
	Seed        int64
	BufferLimit int
	TTL         int
	Pattern     routing.Pattern
	Policy      routing.Policy
	Fault       *FaultSpec
}

// Validate checks the spec's invariants.
func (s *RouteSpec) Validate() error {
	if s.N < 1 || s.N > 14 {
		return fmt.Errorf("wire: routing dimension %d out of range [1,14]", s.N)
	}
	if s.Lambda < 0 || s.Lambda > 1 {
		return fmt.Errorf("wire: lambda %v out of [0,1]", s.Lambda)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("wire: negative warmup %d", s.Warmup)
	}
	if s.Cycles < 1 {
		return fmt.Errorf("wire: need at least 1 measured cycle, got %d", s.Cycles)
	}
	if s.Warmup+s.Cycles > MaxRouteCycles {
		return fmt.Errorf("wire: warmup+cycles %d exceeds cap %d", s.Warmup+s.Cycles, MaxRouteCycles)
	}
	if s.BufferLimit < 0 || s.BufferLimit > maxBufferLimit {
		return fmt.Errorf("wire: buffer limit %d out of [0,%d]", s.BufferLimit, maxBufferLimit)
	}
	if s.TTL < 0 || s.TTL > MaxRouteCycles {
		return fmt.Errorf("wire: ttl %d out of [0,%d]", s.TTL, MaxRouteCycles)
	}
	if !s.Pattern.Valid() {
		return fmt.Errorf("wire: unknown traffic pattern %d", int(s.Pattern))
	}
	if s.Policy != routing.Misroute && s.Policy != routing.DropDead {
		return fmt.Errorf("wire: unknown routing policy %d", int(s.Policy))
	}
	if s.Fault != nil {
		if s.Fault.N != s.N {
			return fmt.Errorf("wire: fault plan dimension %d does not match routing dimension %d", s.Fault.N, s.N)
		}
		if err := s.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the simulation the spec describes and verifies packet
// conservation. The result is a pure function of the spec. A faulted
// run with TTL 0 gets faults.DefaultTTL so trapped packets are dropped
// and accounted rather than pooling in Backlog (the same convention the
// fault sweeps use).
func (s *RouteSpec) Run() (*routing.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := routing.Params{
		N:           s.N,
		Lambda:      s.Lambda,
		Warmup:      s.Warmup,
		Cycles:      s.Cycles,
		Seed:        s.Seed,
		BufferLimit: s.BufferLimit,
		TTL:         s.TTL,
		Policy:      s.Policy,
	}
	if s.Fault != nil && !s.Fault.IsZero() {
		plan, err := s.Fault.Build()
		if err != nil {
			return nil, err
		}
		p.Faults = plan
		if p.TTL == 0 {
			p.TTL = faults.DefaultTTL(s.N)
		}
	}
	res, err := routing.SimulatePattern(p, s.Pattern)
	if err != nil {
		return nil, err
	}
	if err := res.CheckConservation(); err != nil {
		return nil, err
	}
	return res, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *RouteSpec) MarshalBinary() ([]byte, error) {
	if s.N < 0 || s.Warmup < 0 || s.Cycles < 0 || s.BufferLimit < 0 || s.TTL < 0 ||
		s.Pattern < 0 || s.Policy < 0 {
		return nil, fmt.Errorf("wire: route spec has negative fields")
	}
	if s.Fault != nil && len(s.Fault.Events) > maxFaultEvents {
		return nil, fmt.Errorf("wire: fault spec has %d events, cap is %d", len(s.Fault.Events), maxFaultEvents)
	}
	e := newEnc(TypeRouteSpec, VersionRouteSpec)
	e.uint(s.N)
	e.float64(s.Lambda)
	e.uint(s.Warmup)
	e.uint(s.Cycles)
	e.varint(s.Seed)
	e.uint(s.BufferLimit)
	e.uint(s.TTL)
	e.uint(int(s.Pattern))
	e.uint(int(s.Policy))
	e.bool(s.Fault != nil)
	if s.Fault != nil {
		if s.Fault.N < 0 || s.Fault.TransientCount < 0 || s.Fault.TransientHorizon < 0 || s.Fault.TransientRepair < 0 {
			return nil, fmt.Errorf("wire: fault spec has negative fields")
		}
		s.Fault.encodeBody(e)
	}
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *RouteSpec) UnmarshalBinary(data []byte) error {
	d := newDec(data, TypeRouteSpec, VersionRouteSpec)
	var out RouteSpec
	out.N = d.uint()
	out.Lambda = d.float64()
	out.Warmup = d.uint()
	out.Cycles = d.uint()
	out.Seed = d.varint()
	out.BufferLimit = d.uint()
	out.TTL = d.uint()
	out.Pattern = routing.Pattern(d.uint())
	out.Policy = routing.Policy(d.uint())
	if d.bool() {
		var fs FaultSpec
		fs.decodeBody(d)
		out.Fault = &fs
	}
	if err := d.finish(); err != nil {
		return err
	}
	*s = out
	return nil
}

// RouteResult is the wire form of routing.Result: every conservation
// counter and measurement of a run, so a cached result replays without
// re-simulating.
type RouteResult routing.Result

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *RouteResult) MarshalBinary() ([]byte, error) {
	for _, v := range []int{
		r.Nodes, r.Injected, r.Delivered, r.MaxQueue, r.Backlog,
		r.InjectionDrops, r.Stalls, r.Dropped, r.Unreachable, r.Misroutes,
		r.Detours, r.Reroutes, r.UnreachableDead, r.UnreachableCut,
		r.UnreachableDetected, r.Retransmitted, r.DuplicatesDropped,
		r.GaveUp, r.TotalInjected, r.TotalDelivered,
	} {
		if v < 0 {
			return nil, fmt.Errorf("wire: route result has negative counters")
		}
	}
	e := newEnc(TypeRouteResult, VersionRouteResult)
	e.uint(r.Nodes)
	e.uint(r.Injected)
	e.uint(r.Delivered)
	e.float64(r.Throughput)
	e.float64(r.AvgLatency)
	e.float64(r.AvgHops)
	e.uint(r.MaxQueue)
	e.uint(r.Backlog)
	e.float64(r.BoundaryCrossingsPerCycle)
	e.uint(r.InjectionDrops)
	e.uint(r.Stalls)
	e.uint(r.Dropped)
	e.uint(r.Unreachable)
	e.uint(r.Misroutes)
	e.uint(r.Detours)
	e.uint(r.Reroutes)
	e.uint(r.UnreachableDead)
	e.uint(r.UnreachableCut)
	e.uint(r.UnreachableDetected)
	e.uint(r.Retransmitted)
	e.uint(r.DuplicatesDropped)
	e.uint(r.GaveUp)
	e.uint(r.TotalInjected)
	e.uint(r.TotalDelivered)
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (r *RouteResult) UnmarshalBinary(data []byte) error {
	d := newDec(data, TypeRouteResult, VersionRouteResult)
	// A keyed composite literal, not field assignments: the decoder
	// reconstructs a result that routing's accounting already produced,
	// and the conscount ownership contract only budges for whole-value
	// construction. The d.* calls evaluate in lexical order, which is the
	// encoding order.
	out := RouteResult{
		Nodes:                     d.uint(),
		Injected:                  d.uint(),
		Delivered:                 d.uint(),
		Throughput:                d.float64(),
		AvgLatency:                d.float64(),
		AvgHops:                   d.float64(),
		MaxQueue:                  d.uint(),
		Backlog:                   d.uint(),
		BoundaryCrossingsPerCycle: d.float64(),
		InjectionDrops:            d.uint(),
		Stalls:                    d.uint(),
		Dropped:                   d.uint(),
		Unreachable:               d.uint(),
		Misroutes:                 d.uint(),
		Detours:                   d.uint(),
		Reroutes:                  d.uint(),
		UnreachableDead:           d.uint(),
		UnreachableCut:            d.uint(),
		UnreachableDetected:       d.uint(),
		Retransmitted:             d.uint(),
		DuplicatesDropped:         d.uint(),
		GaveUp:                    d.uint(),
		TotalInjected:             d.uint(),
		TotalDelivered:            d.uint(),
	}
	if err := d.finish(); err != nil {
		return err
	}
	*r = out
	return nil
}
