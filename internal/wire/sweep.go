package wire

import (
	"fmt"
	"math"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

// maxSweepRates bounds the number of fault levels one sweep request may
// ask for; each level is a full simulation.
const maxSweepRates = 64

// SweepSpec is the wire form of a link-fault degradation sweep request:
// a fault-free base simulation plus the list of link fault rates to
// measure, in the order the caller wants the points reported. The rate
// order is semantic (it fixes the per-level fault seeds), so it is
// preserved rather than sorted.
type SweepSpec struct {
	N           int
	Lambda      float64
	Warmup      int
	Cycles      int
	Seed        int64
	BufferLimit int
	TTL         int
	Rates       []float64
}

// Validate checks the spec's invariants.
func (s *SweepSpec) Validate() error {
	base := RouteSpec{
		N: s.N, Lambda: s.Lambda, Warmup: s.Warmup, Cycles: s.Cycles,
		Seed: s.Seed, BufferLimit: s.BufferLimit, TTL: s.TTL,
	}
	if err := base.Validate(); err != nil {
		return err
	}
	if len(s.Rates) < 1 {
		return fmt.Errorf("wire: sweep needs at least 1 fault rate")
	}
	if len(s.Rates) > maxSweepRates {
		return fmt.Errorf("wire: sweep has %d fault rates, cap is %d", len(s.Rates), maxSweepRates)
	}
	for i, r := range s.Rates {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("wire: sweep rate %v (index %d) out of [0,1]", r, i)
		}
	}
	return nil
}

// Run executes one simulation per fault rate: a plain degradation sweep
// (misroute policy, no transport) of adaptive.Sweep. The points are a
// pure function of the spec (each level draws its faults from a seed
// derived from Seed and the level index).
func (s *SweepSpec) Run() ([]adaptive.Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := routing.Params{
		N:           s.N,
		Lambda:      s.Lambda,
		Warmup:      s.Warmup,
		Cycles:      s.Cycles,
		Seed:        s.Seed,
		BufferLimit: s.BufferLimit,
		TTL:         s.TTL,
	}
	plain := []adaptive.Mode{{Name: "misroute", Policy: routing.Misroute}}
	return adaptive.Sweep(base, adaptive.Config{}, reliable.Config{}, plain, s.Rates, 0), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SweepSpec) MarshalBinary() ([]byte, error) {
	if s.N < 0 || s.Warmup < 0 || s.Cycles < 0 || s.BufferLimit < 0 || s.TTL < 0 {
		return nil, fmt.Errorf("wire: sweep spec has negative fields")
	}
	if len(s.Rates) > maxSweepRates {
		return nil, fmt.Errorf("wire: sweep has %d fault rates, cap is %d", len(s.Rates), maxSweepRates)
	}
	e := NewEncoder(TypeSweepSpec, VersionSweepSpec)
	e.Uint(s.N)
	e.Float64(s.Lambda)
	e.Uint(s.Warmup)
	e.Uint(s.Cycles)
	e.Varint(s.Seed)
	e.Uint(s.BufferLimit)
	e.Uint(s.TTL)
	e.Uint(len(s.Rates))
	for _, r := range s.Rates {
		if math.IsNaN(r) {
			return nil, fmt.Errorf("wire: NaN sweep rate")
		}
		e.Float64(r)
	}
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *SweepSpec) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data, TypeSweepSpec, VersionSweepSpec)
	var out SweepSpec
	out.N = d.Uint()
	out.Lambda = d.Float64()
	out.Warmup = d.Uint()
	out.Cycles = d.Uint()
	out.Seed = d.Varint()
	out.BufferLimit = d.Uint()
	out.TTL = d.Uint()
	count := d.ListLen(8)
	if d.err == nil && count > maxSweepRates {
		d.fail(fmt.Errorf("%w: %d fault rates, cap is %d", ErrRange, count, maxSweepRates))
	}
	for i := 0; i < count && d.err == nil; i++ {
		out.Rates = append(out.Rates, d.Float64())
	}
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}
