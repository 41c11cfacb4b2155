package bfvlsi

import (
	"io"

	"bfvlsi/internal/analysis"
	"bfvlsi/internal/benes"
	"bfvlsi/internal/bitutil"
	"bfvlsi/internal/butterfly"
	"bfvlsi/internal/ccc"
	"bfvlsi/internal/collinear"
	"bfvlsi/internal/cubelayout"
	"bfvlsi/internal/fftsim"
	"bfvlsi/internal/grid"
	"bfvlsi/internal/hierarchy"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/render"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/thompson"
)

// GroupSpec describes the bit-group parameters (k_1, ..., k_l) of a swap
// network / ISN; see NewGroupSpec.
type GroupSpec = bitutil.GroupSpec

// NewGroupSpec validates and builds a group spec (k_1 first; every other
// width must not exceed k_1).
func NewGroupSpec(widths ...int) (GroupSpec, error) { return bitutil.NewGroupSpec(widths...) }

// Butterfly is an n-dimensional butterfly network B_n.
type Butterfly = butterfly.Butterfly

// NewButterfly constructs B_n.
func NewButterfly(n int) *Butterfly { return butterfly.New(n) }

// ISN is an indirect swap network.
type ISN = isn.ISN

// NewISN materializes the ISN of a group spec.
func NewISN(spec GroupSpec) *ISN { return isn.New(spec) }

// SwapButterfly is the butterfly automorphism obtained from an ISN by the
// Section 2.2 transformation.
type SwapButterfly = isn.SwapButterfly

// Transform applies the ISN -> butterfly transformation. Use
// (*SwapButterfly).VerifyAutomorphism to check the result against B_n.
func Transform(spec GroupSpec) *SwapButterfly { return isn.Transform(spec) }

// Layout is a built butterfly layout (geometry plus bookkeeping).
type Layout = thompson.Result

// LayoutParams configures LayoutWithParams.
type LayoutParams = thompson.Params

// SpecForDim returns the paper's group-spec choice for dimension n
// (Sections 3.2-3.3).
func SpecForDim(n int) GroupSpec { return thompson.SpecForDim(n) }

// LayoutButterfly builds the paper's optimal Thompson-model layout of an
// n-dimensional butterfly.
func LayoutButterfly(n int) (*Layout, error) {
	return thompson.Build(thompson.Params{Spec: thompson.SpecForDim(n)})
}

// LayoutMultilayer builds the Section 4 L-layer layout of B_n under the
// multilayer 2-D grid model.
func LayoutMultilayer(n, layers int) (*Layout, error) {
	return thompson.Build(thompson.Params{
		Spec:       thompson.SpecForDim(n),
		Layers:     layers,
		Multilayer: true,
	})
}

// LayoutWithParams builds a layout with full control over the spec,
// layer count, model, and node size.
func LayoutWithParams(p LayoutParams) (*Layout, error) { return thompson.Build(p) }

// LayoutStats are the measured metrics of a layout.
type LayoutStats = grid.Stats

// CollinearKN returns the paper's strictly optimal collinear track
// assignment for the complete graph K_n: exactly floor(n^2/4) tracks
// (Appendix B). It returns an error when n < 2 or when the track count
// would overflow int.
func CollinearKN(n int) (*collinear.TrackAssignment, error) { return collinear.Optimal(n) }

// Partition assigns network nodes to packaging modules.
type Partition = packaging.Partition

// PackageRows partitions a swap-butterfly with 2^k1 consecutive rows per
// module (Section 2.3, variant a).
func PackageRows(sb *SwapButterfly) *Partition { return packaging.RowPartition(sb) }

// PackageNuclei partitions a swap-butterfly into nucleus-butterfly
// modules (Section 2.3, variant b; Theorem 2.1).
func PackageNuclei(sb *SwapButterfly) *Partition { return packaging.NucleusPartition(sb) }

// BoardDesign is a chip+board design in the hierarchical layout model.
type BoardDesign = hierarchy.BoardDesign

// DesignBoard searches group specs for the best two-level packaging of
// B_n under a per-chip pin budget (Section 5.2).
func DesignBoard(n, maxPins, chipSide int) (*BoardDesign, error) {
	return hierarchy.Design(n, maxPins, chipSide)
}

// RoutingParams configures SimulateRouting.
type RoutingParams = routing.Params

// SimulateRouting runs the synchronous uniform-random-traffic simulation
// on the wrapped n-dimensional butterfly.
func SimulateRouting(p RoutingParams) (*routing.Result, error) { return routing.Simulate(p) }

// SaturationOptions configures SaturationRate.
type SaturationOptions = routing.SaturationOptions

// SaturationRate estimates the maximum stable injection rate of the
// wrapped B_n (Theta(1/log R), the packaging lower-bound scaling).
func SaturationRate(n int, opts SaturationOptions) (float64, error) {
	return routing.SaturationRate(n, opts)
}

// FFTOnISN executes a DFT along the stages of an ISN and returns the
// spectrum plus communication-step accounting.
func FFTOnISN(in *ISN, x []complex128) (*fftsim.Result, error) { return fftsim.OnISN(in, x) }

// PaperThompsonArea returns the paper's Thompson-model area bound
// N^2/log2^2 N for B_n.
func PaperThompsonArea(n int) float64 { return analysis.ThompsonArea(n) }

// PaperMultilayerArea returns the Theorem 4.1 L-layer area bound.
func PaperMultilayerArea(n, layers int) float64 { return analysis.MultilayerArea(n, layers) }

// Benes is a rearrangeable Benes permutation network with its switch
// settings (two back-to-back butterflies; see the paper's introduction).
type Benes = benes.Benes

// NewBenes returns an n-dimensional Benes network (2^n ports per side).
func NewBenes(n int) *Benes { return benes.New(n) }

// LayoutHypercube lays out Q_n with the paper's grid-of-collinear-layouts
// technique (the conclusion's "other networks" extension).
func LayoutHypercube(n int) (*cubelayout.Result, error) { return cubelayout.Hypercube(n) }

// LayoutTorus lays out the k-ary 2-cube likewise.
func LayoutTorus(k int) (*cubelayout.Result, error) { return cubelayout.Torus(k) }

// CCC is a cube-connected cycles network.
type CCC = ccc.CCC

// NewCCC constructs CCC(n) with a verifier, cycle packaging, and a
// grid-of-collinear layout (the [7] companion topology).
func NewCCC(n int) *CCC { return ccc.New(n) }

// RenderSVG writes any built layout as an SVG image.
func RenderSVG(w io.Writer, l *grid.Layout, opts SVGOptions) error {
	return render.SVG(w, l, opts)
}

// SVGOptions configures RenderSVG.
type SVGOptions = render.Options

// MultiLevelDesign is a three-level (chip/board/cabinet) packaging.
type MultiLevelDesign = hierarchy.MultiLevelDesign

// DesignMultiLevelBoard builds the three-level packaging of a 3-level
// group spec (chips from the row partition, boards from block-grid rows).
func DesignMultiLevelBoard(spec GroupSpec) (*MultiLevelDesign, error) {
	return hierarchy.DesignMultiLevel(spec)
}
