package wire

import (
	"fmt"

	"bfvlsi/internal/packaging"
)

// Variant selects a packaging construction. The numeric values are part
// of the wire format: never renumber them.
type Variant int

// Packaging variants.
const (
	// VariantRow packages 2^k1 consecutive swap-butterfly rows per
	// module (Section 2.3 variant a).
	VariantRow Variant = 0
	// VariantNucleus packages nucleus butterflies per module
	// (Section 2.3 variant b, Theorem 2.1).
	VariantNucleus Variant = 1
	// VariantNaive packages consecutive plain-butterfly rows per
	// module, the baseline the paper improves on.
	VariantNaive Variant = 2
)

func (v Variant) String() string {
	switch v {
	case VariantRow:
		return "row"
	case VariantNucleus:
		return "nucleus"
	case VariantNaive:
		return "naive"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// ParseVariant is the inverse of Variant.String.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "row":
		return VariantRow, nil
	case "nucleus":
		return VariantNucleus, nil
	case "naive":
		return VariantNaive, nil
	default:
		return 0, fmt.Errorf("wire: unknown packaging variant %q (want row, nucleus, or naive)", s)
	}
}

// PackagingSpec is the wire form of a packaging request: which variant
// to apply to B_n. RowsPerModule is used only by the naive variant and
// must be zero elsewhere.
type PackagingSpec struct {
	N             int
	Variant       Variant
	RowsPerModule int
}

// Validate checks the spec's invariants.
func (s *PackagingSpec) Validate() error {
	if s.N < 1 || s.N > 20 {
		return fmt.Errorf("wire: packaging dimension %d out of range [1,20]", s.N)
	}
	switch s.Variant {
	case VariantRow, VariantNucleus:
		if s.RowsPerModule != 0 {
			return fmt.Errorf("wire: rowsPerModule is not used by variant %v and must be zero", s.Variant)
		}
	case VariantNaive:
		if s.RowsPerModule < 1 {
			return fmt.Errorf("wire: naive packaging needs rowsPerModule >= 1, got %d", s.RowsPerModule)
		}
	default:
		return fmt.Errorf("wire: unknown packaging variant %d", int(s.Variant))
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *PackagingSpec) MarshalBinary() ([]byte, error) {
	if s.N < 0 || s.Variant < 0 || s.RowsPerModule < 0 {
		return nil, fmt.Errorf("wire: packaging spec has negative fields")
	}
	e := NewEncoder(TypePackagingSpec, VersionPackagingSpec)
	e.Uint(s.N)
	e.Uint(int(s.Variant))
	e.Uint(s.RowsPerModule)
	return e.buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *PackagingSpec) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data, TypePackagingSpec, VersionPackagingSpec)
	var out PackagingSpec
	out.N = d.Uint()
	out.Variant = Variant(d.Uint())
	out.RowsPerModule = d.Uint()
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}

// PackagingPlan summarizes a computed partition: the module assignment
// of every node plus the measured packaging statistics. Like
// LayoutResult it is answered as JSON, never framed.
type PackagingPlan struct {
	Desc       string
	NumModules int
	ModuleOf   []int
	Stats      packaging.Stats
}
