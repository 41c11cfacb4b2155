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
	e := NewEncoder(TypeRouteSpec, VersionRouteSpec)
	e.Uint(s.N)
	e.Float64(s.Lambda)
	e.Uint(s.Warmup)
	e.Uint(s.Cycles)
	e.Varint(s.Seed)
	e.Uint(s.BufferLimit)
	e.Uint(s.TTL)
	e.Uint(int(s.Pattern))
	e.Uint(int(s.Policy))
	e.Bool(s.Fault != nil)
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
	d := NewDecoder(data, TypeRouteSpec, VersionRouteSpec)
	var out RouteSpec
	out.N = d.Uint()
	out.Lambda = d.Float64()
	out.Warmup = d.Uint()
	out.Cycles = d.Uint()
	out.Seed = d.Varint()
	out.BufferLimit = d.Uint()
	out.TTL = d.Uint()
	out.Pattern = routing.Pattern(d.Uint())
	out.Policy = routing.Policy(d.Uint())
	if d.Bool() {
		var fs FaultSpec
		fs.decodeBody(d)
		out.Fault = &fs
	}
	if err := d.Finish(); err != nil {
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
	e := NewEncoder(TypeRouteResult, VersionRouteResult)
	e.Uint(r.Nodes)
	e.Uint(r.Injected)
	e.Uint(r.Delivered)
	e.Float64(r.Throughput)
	e.Float64(r.AvgLatency)
	e.Float64(r.AvgHops)
	e.Uint(r.MaxQueue)
	e.Uint(r.Backlog)
	e.Float64(r.BoundaryCrossingsPerCycle)
	e.Uint(r.InjectionDrops)
	e.Uint(r.Stalls)
	e.Uint(r.Dropped)
	e.Uint(r.Unreachable)
	e.Uint(r.Misroutes)
	e.Uint(r.Detours)
	e.Uint(r.Reroutes)
	e.Uint(r.UnreachableDead)
	e.Uint(r.UnreachableCut)
	e.Uint(r.UnreachableDetected)
	e.Uint(r.Retransmitted)
	e.Uint(r.DuplicatesDropped)
	e.Uint(r.GaveUp)
	e.Uint(r.TotalInjected)
	e.Uint(r.TotalDelivered)
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (r *RouteResult) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data, TypeRouteResult, VersionRouteResult)
	// A keyed composite literal, not field assignments: the decoder
	// reconstructs a result that routing's accounting already produced,
	// and the conscount ownership contract only budges for whole-value
	// construction. The d.* calls evaluate in lexical order, which is the
	// encoding order.
	out := RouteResult{
		Nodes:                     d.Uint(),
		Injected:                  d.Uint(),
		Delivered:                 d.Uint(),
		Throughput:                d.Float64(),
		AvgLatency:                d.Float64(),
		AvgHops:                   d.Float64(),
		MaxQueue:                  d.Uint(),
		Backlog:                   d.Uint(),
		BoundaryCrossingsPerCycle: d.Float64(),
		InjectionDrops:            d.Uint(),
		Stalls:                    d.Uint(),
		Dropped:                   d.Uint(),
		Unreachable:               d.Uint(),
		Misroutes:                 d.Uint(),
		Detours:                   d.Uint(),
		Reroutes:                  d.Uint(),
		UnreachableDead:           d.Uint(),
		UnreachableCut:            d.Uint(),
		UnreachableDetected:       d.Uint(),
		Retransmitted:             d.Uint(),
		DuplicatesDropped:         d.Uint(),
		GaveUp:                    d.Uint(),
		TotalInjected:             d.Uint(),
		TotalDelivered:            d.Uint(),
	}
	if err := d.Finish(); err != nil {
		return err
	}
	*r = out
	return nil
}
