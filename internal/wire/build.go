package wire

import (
	"fmt"
	"sort"

	"bfvlsi/internal/bitutil"
	"bfvlsi/internal/butterfly"
	"bfvlsi/internal/collinear"
	"bfvlsi/internal/hierarchy"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/stack3d"
	"bfvlsi/internal/thompson"
)

// maxBuildN caps the collinear and hierarchy problem sizes a Build
// accepts: floor(n²/4) tracks are materialized link by link, so the
// construction itself is O(n²).
const maxBuildN = 512

// Build constructs the layout the spec describes and summarizes it as a
// LayoutResult. The result is a pure function of the spec, so it is safe
// to cache under the spec's content address.
func (s *LayoutSpec) Build() (*LayoutResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Family {
	case FamilyCollinear:
		return s.buildCollinear()
	case FamilyThompson:
		return s.buildThompson()
	case FamilyStack3D:
		return s.buildStack3D()
	case FamilyHierarchy:
		return s.buildHierarchy()
	}
	return nil, fmt.Errorf("wire: unknown layout family %d", int(s.Family))
}

// sortExtras orders the metric list by name, so every result lists its
// extras in one order.
func sortExtras(extras []Extra) []Extra {
	sort.Slice(extras, func(i, j int) bool { return extras[i].Name < extras[j].Name })
	return extras
}

func (s *LayoutSpec) buildCollinear() (*LayoutResult, error) {
	if s.N > maxBuildN {
		return nil, fmt.Errorf("wire: collinear n %d exceeds service cap %d", s.N, maxBuildN)
	}
	ta, err := collinear.Optimal(s.N)
	if err != nil {
		return nil, err
	}
	ta.ReorderByDescendingSpan()
	l, err := collinear.ToLayout(ta, collinear.LayoutOptions{})
	if err != nil {
		return nil, err
	}
	return &LayoutResult{
		Family: FamilyCollinear,
		Stats:  l.Stats(),
		Extras: sortExtras([]Extra{
			{Name: "chenAgrawalTracks", Value: int64(collinear.ChenAgrawalTracks(s.N))},
			{Name: "numLinks", Value: int64(len(ta.Links))},
			{Name: "numTracks", Value: int64(ta.NumTracks)},
		}),
	}, nil
}

func (s *LayoutSpec) buildThompson() (*LayoutResult, error) {
	spec, err := bitutil.NewGroupSpec(s.Widths...)
	if err != nil {
		return nil, err
	}
	r, err := thompson.Build(thompson.Params{
		Spec:           spec,
		Layers:         s.Layers,
		Multilayer:     s.Multilayer,
		NodeSide:       s.NodeSide,
		NoTrackReorder: s.NoTrackReorder,
	})
	if err != nil {
		return nil, err
	}
	return &LayoutResult{
		Family: FamilyThompson,
		Stats:  r.Stats(),
		Extras: sortExtras([]Extra{
			{Name: "bandHeight", Value: int64(r.BandH)},
			{Name: "blockHeight", Value: int64(r.BlockH)},
			{Name: "blockWidth", Value: int64(r.BlockW)},
			{Name: "colWidth", Value: int64(r.ColW)},
			{Name: "gridCols", Value: int64(r.GridCols)},
			{Name: "gridRows", Value: int64(r.GridRows)},
			{Name: "rowsPerBlock", Value: int64(r.RowsPerBlock)},
		}),
	}, nil
}

func (s *LayoutSpec) buildStack3D() (*LayoutResult, error) {
	spec, err := bitutil.NewGroupSpec(s.Widths...)
	if err != nil {
		return nil, err
	}
	st, err := stack3d.Build(spec, s.SliceLayers)
	if err != nil {
		return nil, err
	}
	return &LayoutResult{
		Family: FamilyStack3D,
		Stats:  st.Slice.Stats(),
		Extras: sortExtras([]Extra{
			{Name: "copies", Value: int64(st.Copies)},
			{Name: "footprintArea", Value: st.FootprintArea()},
			{Name: "interCopyLinks", Value: int64(st.InterCopyLinks)},
			{Name: "sliceLayers", Value: int64(st.SliceLayers)},
			{Name: "volume", Value: st.Volume()},
			{Name: "zColumns", Value: int64(st.ZColumns)},
		}),
	}, nil
}

func (s *LayoutSpec) buildHierarchy() (*LayoutResult, error) {
	if s.N > 24 {
		return nil, fmt.Errorf("wire: hierarchy n %d exceeds the butterfly cap 24", s.N)
	}
	d, err := hierarchy.Design(s.N, s.MaxPins, s.ChipSide)
	if err != nil {
		return nil, err
	}
	// The board geometry is reported for the two-layer wiring model;
	// Stats carries the board dims so every family fills the same
	// summary fields.
	w, h := d.BoardDims(2)
	res := &LayoutResult{Family: FamilyHierarchy}
	res.Stats.Width = w
	res.Stats.Height = h
	res.Stats.Area = d.BoardArea(2)
	res.Stats.Layers = 2
	res.Extras = sortExtras([]Extra{
		{Name: "gridCols", Value: int64(d.GridCols)},
		{Name: "gridRows", Value: int64(d.GridRows)},
		{Name: "nodesPerChip", Value: int64(d.NodesPerChip)},
		{Name: "numChips", Value: int64(d.NumChips)},
		{Name: "offChipLinks", Value: int64(d.OffChipLinks)},
		{Name: "optimizedHTracks", Value: int64(d.OptimizedHTracks)},
		{Name: "optimizedVTracks", Value: int64(d.OptimizedVTracks)},
		{Name: "rawHTracks", Value: int64(d.RawHTracks)},
		{Name: "rawVTracks", Value: int64(d.RawVTracks)},
		{Name: "rowsPerChip", Value: int64(d.RowsPerChip)},
	})
	return res, nil
}

// Build constructs the partition the spec describes and summarizes it
// as a PackagingPlan. The result is a pure function of the spec.
func (s *PackagingSpec) Build() (*PackagingPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var part *packaging.Partition
	switch s.Variant {
	case VariantRow:
		part = packaging.RowPartition(isn.Transform(thompson.SpecForDim(s.N)))
	case VariantNucleus:
		part = packaging.NucleusPartition(isn.Transform(thompson.SpecForDim(s.N)))
	case VariantNaive:
		part = packaging.NaiveRowPartition(butterfly.New(s.N), s.RowsPerModule)
	default:
		return nil, fmt.Errorf("wire: unknown packaging variant %d", int(s.Variant))
	}
	return &PackagingPlan{
		Desc:       part.Desc,
		NumModules: part.NumModules,
		ModuleOf:   part.ModuleOf,
		Stats:      part.Stats(),
	}, nil
}
