package wire

import (
	"fmt"

	"bfvlsi/internal/faults"
)

// FaultEvent is one explicit scheduled fault of a FaultSpec.
type FaultEvent struct {
	// Node is the faulted node (node events) or the link's tail node
	// (link events).
	Node int
	// Out is the directed output link (0 straight, 1 cross) for link
	// events; -1 marks a node event.
	Out int
	// Start is the onset cycle.
	Start int
	// RepairAfter is the number of cycles until repair (0 = permanent).
	RepairAfter int
}

// FaultSpec is the wire form of a fault plan: a deterministic recipe -
// seeded random link/node/transient faults plus explicit events - from
// which Build reconstructs the identical faults.Plan anywhere. Encoding
// the recipe rather than the expanded event list keeps the message
// small and makes the spec itself content-addressable.
type FaultSpec struct {
	N        int
	LinkRate float64
	NodeRate float64
	Seed     int64
	// TransientCount random link outages within TransientHorizon
	// cycles, each repaired after TransientRepair cycles.
	TransientCount   int
	TransientHorizon int
	TransientRepair  int
	Events           []FaultEvent
}

// maxFaultEvents bounds explicit event lists.
const maxFaultEvents = 1 << 16

// IsZero reports whether the spec schedules no faults at all.
func (s *FaultSpec) IsZero() bool {
	return s.LinkRate == 0 && s.NodeRate == 0 && s.TransientCount == 0 && len(s.Events) == 0
}

// Validate checks the spec's invariants.
func (s *FaultSpec) Validate() error {
	if s.N < 1 || s.N > 14 {
		return fmt.Errorf("wire: fault plan dimension %d out of range [1,14]", s.N)
	}
	if s.LinkRate < 0 || s.LinkRate > 1 {
		return fmt.Errorf("wire: link fault rate %v out of [0,1]", s.LinkRate)
	}
	if s.NodeRate < 0 || s.NodeRate > 1 {
		return fmt.Errorf("wire: node fault rate %v out of [0,1]", s.NodeRate)
	}
	if s.TransientCount < 0 || s.TransientHorizon < 0 || s.TransientRepair < 0 {
		return fmt.Errorf("wire: negative transient fault parameters")
	}
	if s.TransientCount > 0 && (s.TransientHorizon < 1 || s.TransientRepair < 1) {
		return fmt.Errorf("wire: transient faults need horizon >= 1 and repair >= 1")
	}
	nodes := s.N << uint(s.N)
	for i, ev := range s.Events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("wire: fault event %d node %d outside [0,%d)", i, ev.Node, nodes)
		}
		if ev.Out < -1 || ev.Out > 1 {
			return fmt.Errorf("wire: fault event %d out %d outside [-1,1]", i, ev.Out)
		}
		if ev.Start < 0 || ev.RepairAfter < 0 {
			return fmt.Errorf("wire: fault event %d has negative cycles", i)
		}
	}
	return nil
}

// Build reconstructs the fault plan the spec describes. The result is a
// pure function of the spec: random faults are drawn from seeds derived
// from Seed, and explicit events are applied in order.
func (s *FaultSpec) Build() (*faults.Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan, err := faults.NewPlan(s.N)
	if err != nil {
		return nil, err
	}
	if s.LinkRate > 0 {
		if _, err := plan.AddRandomLinkFaults(s.LinkRate, s.Seed+1); err != nil {
			return nil, err
		}
	}
	if s.NodeRate > 0 {
		if _, err := plan.AddRandomNodeFaults(s.NodeRate, s.Seed+2); err != nil {
			return nil, err
		}
	}
	if s.TransientCount > 0 {
		if err := plan.AddRandomTransientLinkFaults(s.TransientCount, s.TransientHorizon, s.TransientRepair, s.Seed+3); err != nil {
			return nil, err
		}
	}
	for i, ev := range s.Events {
		if ev.Out < 0 {
			err = plan.AddNodeFault(ev.Node, ev.Start, ev.RepairAfter)
		} else {
			err = plan.AddLinkFault(ev.Node, ev.Out, ev.Start, ev.RepairAfter)
		}
		if err != nil {
			return nil, fmt.Errorf("wire: fault event %d: %v", i, err)
		}
	}
	return plan, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *FaultSpec) MarshalBinary() ([]byte, error) {
	if s.N < 0 || s.TransientCount < 0 || s.TransientHorizon < 0 || s.TransientRepair < 0 {
		return nil, fmt.Errorf("wire: fault spec has negative fields")
	}
	if len(s.Events) > maxFaultEvents {
		return nil, fmt.Errorf("wire: fault spec has %d events, cap is %d", len(s.Events), maxFaultEvents)
	}
	e := NewEncoder(TypeFaultSpec, VersionFaultSpec)
	s.encodeBody(e)
	return e.buf, nil
}

// encodeBody appends the spec's body fields; shared with RouteSpec,
// which nests a fault spec.
func (s *FaultSpec) encodeBody(e *Encoder) {
	e.Uint(s.N)
	e.Float64(s.LinkRate)
	e.Float64(s.NodeRate)
	e.Varint(s.Seed)
	e.Uint(s.TransientCount)
	e.Uint(s.TransientHorizon)
	e.Uint(s.TransientRepair)
	e.Uint(len(s.Events))
	for _, ev := range s.Events {
		e.Uint(ev.Node)
		e.Int(ev.Out)
		e.Uint(ev.Start)
		e.Uint(ev.RepairAfter)
	}
}

// decodeBody reads the spec's body fields; shared with RouteSpec.
func (s *FaultSpec) decodeBody(d *Decoder) {
	s.N = d.Uint()
	s.LinkRate = d.Float64()
	s.NodeRate = d.Float64()
	s.Seed = d.Varint()
	s.TransientCount = d.Uint()
	s.TransientHorizon = d.Uint()
	s.TransientRepair = d.Uint()
	count := d.ListLen(4)
	if d.err == nil && count > maxFaultEvents {
		d.fail(fmt.Errorf("%w: %d fault events, cap is %d", ErrRange, count, maxFaultEvents))
		return
	}
	for i := 0; i < count && d.err == nil; i++ {
		ev := FaultEvent{
			Node:        d.Uint(),
			Out:         d.Int(),
			Start:       d.Uint(),
			RepairAfter: d.Uint(),
		}
		if d.err != nil {
			break
		}
		s.Events = append(s.Events, ev)
	}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *FaultSpec) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data, TypeFaultSpec, VersionFaultSpec)
	var out FaultSpec
	out.decodeBody(d)
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}
