// Package snapshot implements deterministic checkpoint/restore of the
// full routing-simulator stack: the stepwise engine (routing.Sim), the
// reliable transport, the adaptive router, and the fault plan. A
// Checkpoint captures a run at a cycle boundary as a versioned,
// content-addressed wire frame (the internal/wire idiom: canonical
// encoding, decode-then-re-encode byte identity, SHA-256 of the bytes
// as the key), and Restore rebuilds a run that continues
// packet-for-packet — and trace-byte — identical to the uninterrupted
// one, with every conservation identity intact across the boundary.
//
// The fault plan needs no serialized state at all: it is rebuilt from
// its wire.FaultSpec recipe, and its BeginCycle replays events up to
// the restore cycle deterministically. The RNG streams are serialized
// as draw counts (see internal/detrng): restore re-seeds and
// fast-forwards, which costs O(draws) — trivial next to re-simulating
// the cycles that consumed them.
//
// Fork is the what-if primitive on top: it restores a checkpoint under
// a different fault plan, so one warmed-up prefix can fan out into
// many fault scenarios (see internal/sweepfarm).
package snapshot

import (
	"fmt"
	"io"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/wire"
)

// ReliableSpec is the plain-data recipe for a reliable.Transport: its
// Config plus the latency measurement gate.
type ReliableSpec struct {
	Timeout     int
	MaxRetries  int
	Jitter      int
	MaxTimeout  int
	Seed        int64
	MeasureFrom int
}

// Config returns the reliable.Config the spec describes.
func (s *ReliableSpec) Config() reliable.Config {
	return reliable.Config{
		Timeout: s.Timeout, MaxRetries: s.MaxRetries, Jitter: s.Jitter,
		MaxTimeout: s.MaxTimeout, Seed: s.Seed,
	}
}

// Validate checks the spec's invariants.
func (s *ReliableSpec) Validate() error {
	if err := s.Config().Validate(); err != nil {
		return err
	}
	if s.MeasureFrom < 0 {
		return fmt.Errorf("snapshot: negative MeasureFrom %d", s.MeasureFrom)
	}
	return nil
}

// AdaptiveSpec is the plain-data recipe for an adaptive.Router: its
// Config (zero fields select adaptive defaults at Reset).
type AdaptiveSpec struct {
	Threshold     int
	ProbeInterval int
	MaxDetours    int
	Epoch         int
	Seed          int64
}

// Config returns the adaptive.Config the spec describes.
func (s *AdaptiveSpec) Config() adaptive.Config {
	return adaptive.Config{
		Threshold: s.Threshold, ProbeInterval: s.ProbeInterval,
		MaxDetours: s.MaxDetours, Epoch: s.Epoch, Seed: s.Seed,
	}
}

// Validate checks the spec's invariants.
func (s *AdaptiveSpec) Validate() error {
	if _, err := adaptive.New(s.Config()); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Spec describes a complete simulator stack: the routing configuration
// (with optional fault-plan recipe) plus optional reliable-transport
// and adaptive-router recipes. It is everything needed to rebuild the
// stack from nothing — the static half of a checkpoint.
type Spec struct {
	Route    wire.RouteSpec
	Reliable *ReliableSpec
	Adaptive *AdaptiveSpec
}

// Validate checks the spec's invariants.
func (s *Spec) Validate() error {
	if err := s.Route.Validate(); err != nil {
		return err
	}
	if s.Reliable != nil {
		if err := s.Reliable.Validate(); err != nil {
			return err
		}
	}
	if s.Adaptive != nil {
		if err := s.Adaptive.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveTTL returns the TTL the run actually uses: the spec's, or
// faults.DefaultTTL when a fault plan is attached and the spec leaves
// TTL 0 (the same convention as wire.RouteSpec.Run, so trapped packets
// are dropped and accounted rather than pooling in Backlog forever).
func (s *Spec) EffectiveTTL() int {
	if s.Route.TTL == 0 && s.faulted() {
		return faults.DefaultTTL(s.Route.N)
	}
	return s.Route.TTL
}

func (s *Spec) faulted() bool {
	return s.Route.Fault != nil && !s.Route.Fault.IsZero()
}

// MarshalBinary implements encoding.BinaryMarshaler: a TypeSimSpec
// frame embedding the canonical RouteSpec frame.
func (s *Spec) MarshalBinary() ([]byte, error) {
	routeBytes, err := s.Route.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if s.Reliable != nil {
		if s.Reliable.Timeout < 0 || s.Reliable.MaxRetries < 0 || s.Reliable.Jitter < 0 ||
			s.Reliable.MaxTimeout < 0 || s.Reliable.MeasureFrom < 0 {
			return nil, fmt.Errorf("snapshot: reliable spec has negative fields")
		}
	}
	if s.Adaptive != nil {
		if err := s.Adaptive.Validate(); err != nil {
			return nil, err
		}
	}
	e := wire.NewEncoder(wire.TypeSimSpec, wire.VersionSimSpec)
	e.Bytes(routeBytes)
	e.Bool(s.Reliable != nil)
	if s.Reliable != nil {
		e.Uint(s.Reliable.Timeout)
		e.Uint(s.Reliable.MaxRetries)
		e.Uint(s.Reliable.Jitter)
		e.Uint(s.Reliable.MaxTimeout)
		e.Varint(s.Reliable.Seed)
		e.Uint(s.Reliable.MeasureFrom)
	}
	e.Bool(s.Adaptive != nil)
	if s.Adaptive != nil {
		e.Uint(s.Adaptive.Threshold)
		e.Uint(s.Adaptive.ProbeInterval)
		e.Uint(s.Adaptive.MaxDetours)
		e.Uint(s.Adaptive.Epoch)
		e.Varint(s.Adaptive.Seed)
	}
	return e.Encoding(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decode is
// structural (canonical form enforced, semantics checked by Validate
// or Restore): Unmarshal(b) == nil implies re-encoding reproduces b.
func (s *Spec) UnmarshalBinary(data []byte) error {
	d := wire.NewDecoder(data, wire.TypeSimSpec, wire.VersionSimSpec)
	var out Spec
	routeBytes := d.Bytes()
	if d.Err() == nil {
		if err := out.Route.UnmarshalBinary(routeBytes); err != nil {
			return fmt.Errorf("snapshot: embedded route spec: %w", err)
		}
	}
	if d.Bool() {
		out.Reliable = &ReliableSpec{
			Timeout:     d.Uint(),
			MaxRetries:  d.Uint(),
			Jitter:      d.Uint(),
			MaxTimeout:  d.Uint(),
			Seed:        d.Varint(),
			MeasureFrom: d.Uint(),
		}
	}
	if d.Bool() {
		out.Adaptive = &AdaptiveSpec{
			Threshold:     d.Uint(),
			ProbeInterval: d.Uint(),
			MaxDetours:    d.Uint(),
			Epoch:         d.Uint(),
			Seed:          d.Varint(),
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}

// Run is a live simulator stack: the stepwise engine plus the hook
// implementations built from the Spec. Create with Start or
// Checkpoint.Restore/Fork; a Run must not be shared by concurrently
// running goroutines.
type Run struct {
	Spec Spec
	Sim  *routing.Sim
	// Transport and Router are the live hook implementations, nil when
	// the spec attaches none; read their Stats after Finish.
	Transport *reliable.Transport
	Router    *adaptive.Router
}

// params builds the routing.Params and hook instances for the spec.
func (s *Spec) params(trace io.Writer) (routing.Params, *reliable.Transport, *adaptive.Router, error) {
	p := routing.Params{
		N:           s.Route.N,
		Lambda:      s.Route.Lambda,
		Warmup:      s.Route.Warmup,
		Cycles:      s.Route.Cycles,
		Seed:        s.Route.Seed,
		BufferLimit: s.Route.BufferLimit,
		TTL:         s.EffectiveTTL(),
		Policy:      s.Route.Policy,
		Trace:       trace,
	}
	if s.faulted() {
		plan, err := s.Route.Fault.Build()
		if err != nil {
			return routing.Params{}, nil, nil, err
		}
		p.Faults = plan
	}
	var transport *reliable.Transport
	if s.Reliable != nil {
		t, err := reliable.New(s.Reliable.Config())
		if err != nil {
			return routing.Params{}, nil, nil, err
		}
		t.MeasureFrom = s.Reliable.MeasureFrom
		transport = t
		p.Reliable = t
	}
	var router *adaptive.Router
	if s.Adaptive != nil {
		r, err := adaptive.New(s.Adaptive.Config())
		if err != nil {
			return routing.Params{}, nil, nil, err
		}
		router = r
		p.Adaptive = r
	}
	return p, transport, router, nil
}

// Start validates the spec and builds a fresh run positioned before
// cycle 0, its trace (if any) already carrying the header line.
func Start(spec Spec, trace io.Writer) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, transport, router, err := spec.params(trace)
	if err != nil {
		return nil, err
	}
	sim, err := routing.NewSim(p, spec.Route.Pattern)
	if err != nil {
		return nil, err
	}
	return &Run{Spec: spec, Sim: sim, Transport: transport, Router: router}, nil
}

// StepTo advances the run to the given cycle boundary.
func (r *Run) StepTo(cycle int) error {
	return r.Sim.RunTo(cycle)
}

// Finish runs the remaining cycles and returns the final result,
// verified against the conservation identities.
func (r *Run) Finish() (*routing.Result, error) {
	res, err := r.Sim.Finish()
	if err != nil {
		return nil, err
	}
	if err := res.CheckConservation(); err != nil {
		return nil, err
	}
	return res, nil
}

// Checkpoint captures the run's complete state at the current cycle
// boundary. The checkpoint shares no mutable state with the run.
func (r *Run) Checkpoint() *Checkpoint {
	c := &Checkpoint{Spec: r.Spec, Sim: *r.Sim.State()}
	if r.Transport != nil {
		c.Reliable = r.Transport.State()
	}
	if r.Router != nil {
		c.Adaptive = r.Router.State()
	}
	return c
}
