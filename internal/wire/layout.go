package wire

import (
	"fmt"

	"bfvlsi/internal/grid"
)

// Family selects one of the four layout constructions the service
// exposes. The numeric values are part of the wire format: never
// renumber them.
type Family int

// Layout families.
const (
	// FamilyCollinear is the Appendix B collinear layout of K_n.
	FamilyCollinear Family = 0
	// FamilyThompson is the Section 3-4 Thompson / multilayer layout
	// of a butterfly given by a group spec.
	FamilyThompson Family = 1
	// FamilyStack3D is the Section 4.3 stacked 3-D layout of a 4-level
	// group spec.
	FamilyStack3D Family = 2
	// FamilyHierarchy is the Section 5.2 chip+board design search.
	FamilyHierarchy Family = 3
)

func (f Family) String() string {
	switch f {
	case FamilyCollinear:
		return "collinear"
	case FamilyThompson:
		return "thompson"
	case FamilyStack3D:
		return "stack3d"
	case FamilyHierarchy:
		return "hierarchy"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// ParseFamily is the inverse of Family.String for the four known
// families.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "collinear":
		return FamilyCollinear, nil
	case "thompson":
		return FamilyThompson, nil
	case "stack3d":
		return FamilyStack3D, nil
	case "hierarchy":
		return FamilyHierarchy, nil
	default:
		return 0, fmt.Errorf("wire: unknown layout family %q (want collinear, thompson, stack3d, or hierarchy)", s)
	}
}

// LayoutSpec is the wire form of a layout request. All fields of every
// family are always encoded; Validate requires the fields a family does
// not use to be zero, so a spec has exactly one canonical encoding and
// its SHA-256 is a usable content address.
type LayoutSpec struct {
	Family Family
	// N is the complete-graph size (collinear) or butterfly dimension
	// (hierarchy).
	N int
	// Widths is the group spec (thompson: 1-3 groups; stack3d: exactly
	// 4 groups).
	Widths []int
	// Layers / Multilayer select the Section 4 multilayer model
	// (thompson only).
	Layers     int
	Multilayer bool
	// NodeSide overrides the node box side (thompson only; 0 = model
	// minimum).
	NodeSide int
	// NoTrackReorder disables the Appendix B wire-length optimization
	// (thompson only).
	NoTrackReorder bool
	// SliceLayers is the per-slice wiring layer count (stack3d only).
	SliceLayers int
	// MaxPins and ChipSide drive the board design search (hierarchy
	// only).
	MaxPins  int
	ChipSide int
}

// maxSpecWidths bounds the group-spec length; the paper's direct
// constructions use at most 4 groups.
const maxSpecWidths = 4

// Validate checks the spec's family-specific invariants, including that
// every field the family does not use is zero (canonicality: two specs
// that build the same artifact must have the same encoding).
func (s *LayoutSpec) Validate() error {
	zeroUnless := func(cond bool, name string, nonzero bool) error {
		if !cond && nonzero {
			return fmt.Errorf("wire: layout spec field %s is not used by family %v and must be zero", name, s.Family)
		}
		return nil
	}
	th := s.Family == FamilyThompson
	st := s.Family == FamilyStack3D
	hi := s.Family == FamilyHierarchy
	co := s.Family == FamilyCollinear
	if !th && !st && !hi && !co {
		return fmt.Errorf("wire: unknown layout family %d", int(s.Family))
	}
	// Every numeric field is a count or a side length; negatives can
	// never encode (the wire format is unsigned here), so reject them up
	// front with a clearer error than marshal would give.
	if s.N < 0 || s.Layers < 0 || s.NodeSide < 0 || s.SliceLayers < 0 ||
		s.MaxPins < 0 || s.ChipSide < 0 {
		return fmt.Errorf("wire: layout spec has negative fields")
	}
	for _, c := range []struct {
		used    bool
		name    string
		nonzero bool
	}{
		{co || hi, "n", s.N != 0},
		{th || st, "widths", len(s.Widths) != 0},
		{th, "layers", s.Layers != 0},
		{th, "multilayer", s.Multilayer},
		{th, "nodeSide", s.NodeSide != 0},
		{th, "noTrackReorder", s.NoTrackReorder},
		{st, "sliceLayers", s.SliceLayers != 0},
		{hi, "maxPins", s.MaxPins != 0},
		{hi, "chipSide", s.ChipSide != 0},
	} {
		if err := zeroUnless(c.used, c.name, c.nonzero); err != nil {
			return err
		}
	}
	switch s.Family {
	case FamilyCollinear:
		if s.N < 2 {
			return fmt.Errorf("wire: collinear layout needs n >= 2, got %d", s.N)
		}
	case FamilyThompson:
		if len(s.Widths) < 1 || len(s.Widths) > 3 {
			return fmt.Errorf("wire: thompson layout needs 1-3 group widths, got %d", len(s.Widths))
		}
		if s.Multilayer && s.Layers < 2 {
			return fmt.Errorf("wire: multilayer layout needs layers >= 2, got %d", s.Layers)
		}
		if !s.Multilayer && s.Layers != 0 && s.Layers != 2 {
			return fmt.Errorf("wire: the Thompson model has exactly 2 layers; set multilayer for layers=%d", s.Layers)
		}
	case FamilyStack3D:
		if len(s.Widths) != 4 {
			return fmt.Errorf("wire: stack3d layout needs exactly 4 group widths, got %d", len(s.Widths))
		}
		if s.SliceLayers < 2 {
			return fmt.Errorf("wire: stack3d layout needs sliceLayers >= 2, got %d", s.SliceLayers)
		}
	case FamilyHierarchy:
		if s.N < 1 {
			return fmt.Errorf("wire: hierarchy design needs n >= 1, got %d", s.N)
		}
		if s.MaxPins < 1 {
			return fmt.Errorf("wire: hierarchy design needs maxPins >= 1, got %d", s.MaxPins)
		}
		if s.ChipSide < 0 {
			return fmt.Errorf("wire: hierarchy chipSide must be non-negative, got %d", s.ChipSide)
		}
	}
	for i, w := range s.Widths {
		if w < 1 || w > 62 {
			return fmt.Errorf("wire: group width %d (index %d) outside [1,62]", w, i)
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *LayoutSpec) MarshalBinary() ([]byte, error) {
	if s.Family < 0 || s.N < 0 || s.Layers < 0 || s.NodeSide < 0 ||
		s.SliceLayers < 0 || s.MaxPins < 0 || s.ChipSide < 0 {
		return nil, fmt.Errorf("wire: layout spec has negative fields")
	}
	if len(s.Widths) > maxSpecWidths {
		return nil, fmt.Errorf("wire: layout spec has %d group widths, cap is %d", len(s.Widths), maxSpecWidths)
	}
	e := NewEncoder(TypeLayoutSpec, VersionLayoutSpec)
	e.Uint(int(s.Family))
	e.Uint(s.N)
	e.Uint(len(s.Widths))
	for _, w := range s.Widths {
		if w < 0 {
			return nil, fmt.Errorf("wire: negative group width %d", w)
		}
		e.Uint(w)
	}
	e.Uint(s.Layers)
	e.Bool(s.Multilayer)
	e.Uint(s.NodeSide)
	e.Bool(s.NoTrackReorder)
	e.Uint(s.SliceLayers)
	e.Uint(s.MaxPins)
	e.Uint(s.ChipSide)
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *LayoutSpec) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data, TypeLayoutSpec, VersionLayoutSpec)
	var out LayoutSpec
	out.Family = Family(d.Uint())
	out.N = d.Uint()
	count := d.ListLen(1)
	if d.err == nil && count > maxSpecWidths {
		d.fail(fmt.Errorf("%w: %d group widths, cap is %d", ErrRange, count, maxSpecWidths))
	}
	for i := 0; i < count && d.err == nil; i++ {
		out.Widths = append(out.Widths, d.Uint())
	}
	out.Layers = d.Uint()
	out.Multilayer = d.Bool()
	out.NodeSide = d.Uint()
	out.NoTrackReorder = d.Bool()
	out.SliceLayers = d.Uint()
	out.MaxPins = d.Uint()
	out.ChipSide = d.Uint()
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}

// Extra is one named family-specific metric of a layout result.
type Extra struct {
	Name  string
	Value int64
}

// LayoutResult summarizes a built layout: the measured grid-model
// statistics plus family-specific extras (track counts, block geometry,
// chip counts), sorted by name. It is an answer, not a frame: serve
// returns it as JSON.
type LayoutResult struct {
	Family Family
	Stats  grid.Stats
	Extras []Extra
}
