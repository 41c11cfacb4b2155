// Package thompson builds the paper's optimal butterfly layouts under the
// Thompson model (Section 3) as complete, validated geometry.
//
// The construction follows Sections 3.2-3.3 exactly:
//
//  1. Transform ISN(l, ...) into a swap-butterfly (an automorphism of
//     B_n, package isn).
//  2. Place every 2^k1 consecutive rows into a block; arrange the blocks
//     as a 2^k3 x 2^k2 grid in row-major order (Fig. 3).
//  3. Level-2 (doubled) swap links connect blocks within a grid row; they
//     are wired in horizontal track bands above each block row using the
//     collinear layout of K_{2^k2} with every wire replicated
//     2^{2+k1-k2} times. Level-3 swap links connect blocks within a grid
//     column and use vertical track regions to the right of each block
//     column (collinear K_{2^k3}, replication 2^{2+k1-k3}).
//  4. Straight and cross links are confined to blocks and are
//     channel-routed stage by stage; links incident to a block are
//     connected to their nodes inside the block through dedicated
//     terminal tracks (level 2) and row-gap runs (level 3).
//
// Every node is a 4x4 box (the Thompson model's "degree-d node occupies a
// side-d square" with d = 4); every wire is a rectilinear polyline. The
// result passes the package grid Thompson-rule validator, and its area
// and maximum wire length are measured, not asserted.
package thompson

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"bfvlsi/internal/bitutil"
	"bfvlsi/internal/channel"
	"bfvlsi/internal/collinear"
	"bfvlsi/internal/geom"
	"bfvlsi/internal/grid"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/par"
)

// NodeSide is the default side of each node box: the butterfly's maximum
// degree (the Thompson model's minimum for a degree-4 node). Larger node
// sizes model nodes containing processors and memory banks (Section 3.3).
const NodeSide = 4

// gapSlotsPerRow is the height of the horizontal run gap above each node
// row when column (level-3) links exist: 2 outgoing + 2 incoming runs.
const gapSlotsPerRow = 4

// Params configures a layout build.
type Params struct {
	// Spec is the ISN group spec; 1 <= levels <= 3. Use SpecForDim for
	// the paper's parameter choices (Sections 3.2-3.3).
	Spec bitutil.GroupSpec
	// Layers selects the wiring model: 0 or 2 builds the two-layer
	// Thompson-model layout; L >= 2 with Multilayer true builds the
	// Section 4 multilayer 2-D grid layout, partitioning the inter-block
	// tracks into groups wired on separate layer pairs.
	Layers int
	// Multilayer switches validation and layer assignment to the
	// multilayer 2-D grid model (edge- and node-disjoint 3-D paths).
	Multilayer bool
	// NodeSide is the side of each node box. 0 means the minimum,
	// NodeSide (= 4). Larger values model nodes holding processors and
	// memory banks; Section 3.3 shows the leading area constant is
	// unaffected while the side stays o(sqrt(N)/log N).
	NodeSide int
	// NoTrackReorder disables the wire-length optimization of Appendix B
	// (placing long-span collinear tracks nearest the blocks). Used for
	// the ablation benchmark; area is unaffected, max wire length grows.
	NoTrackReorder bool
}

// SpecForDim returns the group spec the paper uses for an n-dimensional
// butterfly: (n/3, n/3, n/3) when 3 | n; k1=(n+2)/3, k2=k3=(n-1)/3 when
// n = 1 mod 3; k1=k2=(n+1)/3, k3=(n-2)/3 when n = 2 mod 3. For n < 3 it
// degenerates to fewer levels.
func SpecForDim(n int) bitutil.GroupSpec {
	switch {
	case n < 1:
		panic(fmt.Sprintf("thompson: dimension %d out of range", n))
	case n == 1:
		return bitutil.MustGroupSpec(1)
	case n == 2:
		return bitutil.MustGroupSpec(1, 1)
	}
	switch n % 3 {
	case 0:
		return bitutil.MustGroupSpec(n/3, n/3, n/3)
	case 1:
		return bitutil.MustGroupSpec((n+2)/3, (n-1)/3, (n-1)/3)
	default: // n % 3 == 2
		return bitutil.MustGroupSpec((n+1)/3, (n+1)/3, (n-2)/3)
	}
}

// Result is a built layout with its bookkeeping.
type Result struct {
	Spec     bitutil.GroupSpec
	SB       *isn.SwapButterfly
	L        *grid.Layout
	Layers   int
	NodeSide int

	// Geometry summary.
	BlockW, BlockH     int // block footprint
	BandH              int // horizontal track band height per block row (after any multilayer compression)
	ColW               int // vertical track region width per block column (after compression)
	FullBandTracks     int // uncompressed horizontal tracks per band (2^{k1+k2})
	FullColTracks      int // uncompressed vertical tracks per column region (2^{k1+k3})
	GridRows, GridCols int // block grid (2^k3 x 2^k2)
	RowsPerBlock       int // 2^k1

	rowPitch   int
	gapH       int
	stageXLoc  []int // local x of each stage's node column within a block
	chanWidths []int
}

// interLink is one doubled swap link that leaves its block.
type interLink struct {
	fromRow, toRow int // global swap-butterfly rows
	step           int // effective step index (stage boundary)
	level          int // 2 (row link) or 3 (column link)
}

type builder struct {
	res *Result

	spec           bitutil.GroupSpec
	n, k1          int
	rowsPer        int
	m2, m3         int
	c2, c3         int
	numBlocks      int
	layers         int
	model          grid.Model
	hGroups        int // horizontal track groups for band compression
	vGroups        int // vertical track groups for column-region compression
	perGroupH      int
	perGroupV      int
	noReorder      bool
	intraH, intraV int               // layers for block-internal wiring
	intraNets      [][][]channel.Net // [step][block]
	intraPlans     [][]*channel.Plan
	intraWidth     []int // per step: max intra tracks
	dedWidth       []int // per step: max dedicated tracks
	inter          []interLink
	dedRank        map[[3]int]int // (step, block, endpointKey) -> dedicated rank; see edKey
	gapRank        map[[3]int]int // (step, block, endpointKey) -> gap slot rank
	endpointCounts map[[2]int]int
}

// Build constructs the layout. It returns an error for specs with more
// than three levels (the paper's direct construction covers l <= 3;
// larger l is handled recursively in the paper and out of scope here).
func Build(p Params) (*Result, error) {
	spec := p.Spec
	l := spec.Levels()
	if l > 3 {
		return nil, fmt.Errorf("thompson: direct layout supports at most 3 levels, got %d", l)
	}
	if spec.Size() > 1<<20 {
		return nil, fmt.Errorf("thompson: %v too large to materialize", spec)
	}
	layers := p.Layers
	if layers == 0 {
		layers = 2
	}
	if layers < 2 {
		return nil, fmt.Errorf("thompson: need at least 2 wiring layers, got %d", layers)
	}
	if !p.Multilayer && layers != 2 {
		return nil, fmt.Errorf("thompson: the Thompson model has exactly 2 layers; set Multilayer for L=%d", layers)
	}
	b := &builder{
		spec:      spec,
		n:         spec.TotalBits(),
		k1:        spec.GroupWidth(1),
		rowsPer:   1 << uint(spec.GroupWidth(1)),
		layers:    layers,
		noReorder: p.NoTrackReorder,
	}
	if p.Multilayer {
		b.model = grid.Multilayer
		if layers%2 == 0 {
			b.hGroups, b.vGroups = layers/2, layers/2
			b.intraH, b.intraV = 2, 1
		} else {
			// Odd L (Section 4.2): horizontal tracks on the (L+1)/2 odd
			// layers, vertical tracks on the (L-1)/2 even layers.
			b.hGroups, b.vGroups = (layers+1)/2, (layers-1)/2
			b.intraH, b.intraV = 1, 2
		}
	} else {
		b.model = grid.Thompson
		b.hGroups, b.vGroups = 1, 1
		b.intraH, b.intraV = 1, 2
	}
	b.m2, b.m3 = 1, 1
	b.c2, b.c3 = 0, 0
	if l >= 2 {
		k2 := spec.GroupWidth(2)
		b.m2 = 1 << uint(k2)
		c2, ok := bitutil.CheckedShl(1, 2+b.k1-k2)
		if !ok {
			return nil, fmt.Errorf("thompson: row replication 2^(2+k1-k2) overflows int for spec %v", spec)
		}
		b.c2 = c2
	}
	if l == 3 {
		k3 := spec.GroupWidth(3)
		b.m3 = 1 << uint(k3)
		c3, ok := bitutil.CheckedShl(1, 2+b.k1-k3)
		if !ok {
			return nil, fmt.Errorf("thompson: column replication 2^(2+k1-k3) overflows int for spec %v", spec)
		}
		b.c3 = c3
	}
	numBlocks, ok := bitutil.CheckedMul(b.m2, b.m3)
	if !ok {
		return nil, fmt.Errorf("thompson: block grid 2^k2 x 2^k3 overflows int for spec %v", spec)
	}
	b.numBlocks = numBlocks

	nodeSide := p.NodeSide
	if nodeSide == 0 {
		nodeSide = NodeSide
	}
	if nodeSide < NodeSide {
		return nil, fmt.Errorf("thompson: node side %d below the degree-%d minimum", nodeSide, NodeSide)
	}
	sb := isn.Transform(spec)
	gapH := 0
	if l == 3 {
		gapH = gapSlotsPerRow
	}
	res := &Result{
		Spec:         spec,
		SB:           sb,
		Layers:       layers,
		NodeSide:     nodeSide,
		GridRows:     b.m3,
		GridCols:     b.m2,
		RowsPerBlock: b.rowsPer,
		rowPitch:     nodeSide + gapH,
		gapH:         gapH,
	}
	b.res = res

	if err := b.planChannels(); err != nil {
		return nil, err
	}
	b.computeFootprint()
	if err := b.realize(); err != nil {
		return nil, err
	}
	return res, nil
}

// ---- addressing helpers ----

func (b *builder) blockOf(row int) int { return row >> uint(b.k1) }
func (b *builder) gcOf(block int) int  { return block & (b.m2 - 1) }
func (b *builder) grOf(block int) int  { return block / b.m2 }

func (b *builder) swapAt(level int, row int) int {
	return int(b.spec.SwapNeighbor(uint64(row), level))
}

// slotOut returns the east-edge port slot (0 or 1) used by the link from
// row r to row to at a merged step of the given level.
func (b *builder) slotOut(level, r, to int) int {
	if b.swapAt(level, r) == to {
		return 0
	}
	return 1
}

// slotIn returns the west-edge port slot (2 or 3) at the receiving node.
func (b *builder) slotIn(level, r, to int) int {
	if b.swapAt(level, to) == r {
		return 2
	}
	return 3
}

// ---- geometry accessors (valid after computeFootprint) ----

// Grid coordinates and per-block dimensions are bounded by the
// Size() <= 2^20 guard in Build, so these products stay far below
// overflow.
func (r *Result) blockX0(gc int) int { return gc * (r.BlockW + r.ColW) }
func (r *Result) blockY0(gr int) int { return gr * (r.BlockH + r.BandH) }

// NodeRect returns the box of swap-butterfly node (row, stage).
func (r *Result) NodeRect(row, stage int) geom.Rect {
	block := row >> uint(trailingLog(r.RowsPerBlock))
	gc := block & (r.GridCols - 1)
	gr := block / r.GridCols
	lr := row & (r.RowsPerBlock - 1)
	x0 := r.blockX0(gc) + r.stageXLoc[stage]
	y0 := r.blockY0(gr) + lr*r.rowPitch
	return geom.NewRect(x0, y0, x0+r.NodeSide-1, y0+r.NodeSide-1)
}

func trailingLog(v int) int {
	n := 0
	for n < 63 && (1<<uint(n)) < v {
		n++
	}
	return n
}

// portY returns the y coordinate of the given slot of node (row, stage).
func (b *builder) portY(row, slot int) int {
	gr := b.grOf(b.blockOf(row))
	lr := row & (b.rowsPer - 1)
	return b.res.blockY0(gr) + lr*b.res.rowPitch + slot
}

func (b *builder) nodeEastX(row, stage int) int {
	gc := b.gcOf(b.blockOf(row))
	return b.res.blockX0(gc) + b.res.stageXLoc[stage] + b.res.NodeSide - 1
}

func (b *builder) nodeWestX(row, stage int) int {
	gc := b.gcOf(b.blockOf(row))
	return b.res.blockX0(gc) + b.res.stageXLoc[stage]
}

// localPortY gives the port y as used during planning (block-relative;
// the per-block plans are computed before global positions exist).
func (b *builder) localPortY(row, slot int) int {
	lr := row & (b.rowsPer - 1)
	return lr*b.res.rowPitch + slot
}

// ---- pass 1: per-channel plans and widths ----

func (b *builder) planChannels() error {
	sb := b.res.SB
	steps := sb.Steps
	b.intraNets = make([][][]channel.Net, len(steps))
	b.intraPlans = make([][]*channel.Plan, len(steps))
	b.intraWidth = make([]int, len(steps))
	b.dedWidth = make([]int, len(steps))
	b.dedRank = make(map[[3]int]int)
	b.gapRank = make(map[[3]int]int)
	b.endpointCounts = make(map[[2]int]int)

	// Phase 1 (serial, deterministic): enumerate the nets of every
	// channel and the inter-block links. Order matters here - the inter
	// slice drives dedicated-track ranks and copy indices.
	for j, st := range steps {
		b.intraNets[j] = make([][]channel.Net, b.numBlocks)
		b.intraPlans[j] = make([]*channel.Plan, b.numBlocks)
		sbit := st.Bit
		if sbit < 0 || sbit > 62 {
			return fmt.Errorf("thompson: step %d has bit %d outside [0,62]", j, sbit)
		}
		bit := 1 << uint(sbit)
		if !st.Merged {
			for blk := 0; blk < b.numBlocks; blk++ {
				base := blk * b.rowsPer
				var nets []channel.Net
				for lr := 0; lr < b.rowsPer; lr++ {
					r := base + lr
					// straight link on slot 0 of both walls
					nets = append(nets, channel.Net{
						Label: fmt.Sprintf("s%d.%d", r, j),
						LeftY: b.localPortY(r, 0), RightY: b.localPortY(r, 0),
					})
					// cross link: out slot 1 -> in slot 2 at r^bit
					nets = append(nets, channel.Net{
						Label: fmt.Sprintf("c%d.%d", r, j),
						LeftY: b.localPortY(r, 1), RightY: b.localPortY(r^bit, 2),
					})
				}
				b.intraNets[j][blk] = nets
			}
			continue
		}
		// Merged step: split the 2R doubled swap links into intra-block
		// nets and inter-block links.
		for blk := 0; blk < b.numBlocks; blk++ {
			base := blk * b.rowsPer
			var nets []channel.Net
			ded := 0
			for lr := 0; lr < b.rowsPer; lr++ {
				r := base + lr
				w := b.swapAt(st.Level, r)
				for _, to := range []int{w, w ^ bit} {
					if b.blockOf(to) == blk {
						nets = append(nets, channel.Net{
							Label:  fmt.Sprintf("m%d-%d.%d", r, to, j),
							LeftY:  b.localPortY(r, b.slotOut(st.Level, r, to)),
							RightY: b.localPortY(to, b.slotIn(st.Level, r, to)),
						})
					} else {
						b.inter = append(b.inter, interLink{fromRow: r, toRow: to, step: j, level: st.Level})
						ded++ // out endpoint in this block
					}
				}
				// incoming endpoints from other blocks
				for _, from := range []int{b.swapAt(st.Level, r), b.swapAt(st.Level, r^bit)} {
					if b.blockOf(from) != blk {
						ded++
					}
				}
			}
			b.intraNets[j][blk] = nets
			if ded > b.dedWidth[j] {
				b.dedWidth[j] = ded
			}
		}
	}
	// Phase 2 (parallel): channel-route every (step, block) pair. Route
	// is pure and results land in preallocated slots, so the output is
	// identical to the serial order regardless of scheduling.
	if err := b.routeChannelsParallel(); err != nil {
		return err
	}
	for j := range steps {
		for blk := 0; blk < b.numBlocks; blk++ {
			if p := b.intraPlans[j][blk]; p != nil && p.Tracks > b.intraWidth[j] {
				b.intraWidth[j] = p.Tracks
			}
		}
	}
	b.assignDedicated()
	return nil
}

// routeChannelsParallel routes all planned channels across a worker
// pool of at most 8 workers, stopping at the first routing error.
func (b *builder) routeChannelsParallel() error {
	return par.For(context.Background(), len(b.res.SB.Steps)*b.numBlocks, min(runtime.GOMAXPROCS(0), 8), func(_ context.Context, k int) error {
		j, blk := k/b.numBlocks, k%b.numBlocks
		plan, err := channel.Route(b.intraNets[j][blk])
		if err != nil {
			return fmt.Errorf("thompson: step %d block %d: %v", j, blk, err)
		}
		b.intraPlans[j][blk] = plan
		return nil
	})
}

// endpoint describes one block-side terminal of an inter-block link.
type endpoint struct {
	linkIdx int
	row     int // the node row of this endpoint
	out     bool
	other   int // the block-grid coordinate of the other endpoint (gc or gr)
	tie     int
}

// assignDedicated orders, per (step, block), all inter-link endpoints by
// the other endpoint's grid coordinate and assigns dedicated track ranks
// (and, for level-3 links, row-gap run slots). The ordering makes the
// chained intervals of a shared collinear track pairwise disjoint.
func (b *builder) assignDedicated() {
	perKey := make(map[[2]int][]endpoint)
	for idx, il := range b.inter {
		fb, tb := b.blockOf(il.fromRow), b.blockOf(il.toRow)
		var fOther, tOther int
		if il.level == 2 {
			fOther, tOther = b.gcOf(tb), b.gcOf(fb)
		} else {
			fOther, tOther = b.grOf(tb), b.grOf(fb)
		}
		perKey[[2]int{il.step, fb}] = append(perKey[[2]int{il.step, fb}],
			endpoint{linkIdx: idx, row: il.fromRow, out: true, other: fOther, tie: idx})
		perKey[[2]int{il.step, tb}] = append(perKey[[2]int{il.step, tb}],
			endpoint{linkIdx: idx, row: il.toRow, out: false, other: tOther, tie: idx})
	}
	for key, eps := range perKey {
		sort.Slice(eps, func(i, j int) bool {
			if eps[i].other != eps[j].other {
				return eps[i].other < eps[j].other
			}
			return eps[i].tie < eps[j].tie
		})
		for rank, ep := range eps {
			code := ep.linkIdx*2 + boolToInt(ep.out)
			b.dedRank[[3]int{key[0], key[1], code}] = rank
			b.gapRank[[3]int{key[0], key[1], code}] = rank
		}
		b.endpointCounts[key] = len(eps)
	}
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// ---- pass 2: footprint ----

func (b *builder) computeFootprint() {
	res := b.res
	steps := res.SB.Steps
	res.chanWidths = make([]int, len(steps))
	res.stageXLoc = make([]int, len(steps)+1)
	x := 0
	for j := range steps {
		res.stageXLoc[j] = x
		res.chanWidths[j] = b.intraWidth[j] + b.dedWidth[j]
		x += res.NodeSide + res.chanWidths[j]
	}
	res.stageXLoc[len(steps)] = x
	res.BlockW = x + res.NodeSide
	res.BlockH = b.rowsPer * res.rowPitch
	if b.m2 > 1 {
		res.FullBandTracks = b.c2 * (b.m2 * b.m2 / 4)
		b.perGroupH = ceilDiv(res.FullBandTracks, b.hGroups)
		res.BandH = b.perGroupH
	}
	if b.m3 > 1 {
		res.FullColTracks = b.c3 * (b.m3 * b.m3 / 4)
		b.perGroupV = ceilDiv(res.FullColTracks, b.vGroups)
		res.ColW = b.perGroupV
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// maxLayerGroups bounds the horizontal/vertical group indices handed to
// the layer-pair helpers; group counts derive from the layer budget,
// which is tiny in practice.
const maxLayerGroups = 1 << 20

// rowLinkLayers returns the (hLayer, vLayer) pair for a row link whose
// horizontal band track falls into horizontal group g (0-based).
func (b *builder) rowLinkLayers(g int) (hLayer, vLayer int) {
	if g < 0 || g > maxLayerGroups {
		panic(fmt.Sprintf("thompson: horizontal group %d outside [0,%d]", g, maxLayerGroups))
	}
	if b.layers%2 == 0 {
		return 2*g + 2, 2*g + 1
	}
	h := 2*g + 1
	v := h - 1
	if v < 2 {
		v = 2
	}
	return h, v
}

// colLinkLayers returns the (hLayer, vLayer) pair for a column link whose
// vertical region track falls into vertical group g (0-based).
func (b *builder) colLinkLayers(g int) (hLayer, vLayer int) {
	if g < 0 || g > maxLayerGroups {
		panic(fmt.Sprintf("thompson: vertical group %d outside [0,%d]", g, maxLayerGroups))
	}
	if b.layers%2 == 0 {
		return 2*g + 2, 2*g + 1
	}
	return 2*g + 3, 2*g + 2
}

// ---- pass 3: realization ----

func (b *builder) realize() error {
	res := b.res
	sb := res.SB
	l := grid.NewLayout(b.model, b.layers)
	res.L = l

	// Nodes.
	for s := 0; s < sb.Stages; s++ {
		for r := 0; r < sb.Rows; r++ {
			l.AddNode(fmt.Sprintf("n%d.%d", r, s), res.NodeRect(r, s))
		}
	}

	// Intra-block channels.
	for j := range sb.Steps {
		for blk := 0; blk < b.numBlocks; blk++ {
			nets := b.intraNets[j][blk]
			if len(nets) == 0 {
				continue
			}
			gc, gr := b.gcOf(blk), b.grOf(blk)
			dx := res.blockX0(gc)
			dy := res.blockY0(gr)
			global := make([]channel.Net, len(nets))
			for i, nt := range nets {
				global[i] = channel.Net{Label: nt.Label, LeftY: nt.LeftY + dy, RightY: nt.RightY + dy}
			}
			xLeft := dx + res.stageXLoc[j] + res.NodeSide - 1
			xRight := dx + res.stageXLoc[j+1]
			trackX := func(t int) int { return xLeft + 1 + t }
			if err := channel.RealizeOnLayers(l, global, b.intraPlans[j][blk], xLeft, xRight, trackX, b.intraH, b.intraV); err != nil {
				return fmt.Errorf("thompson: step %d block %d: %v", j, blk, err)
			}
		}
	}

	// Inter-block wires.
	if err := b.realizeInter(); err != nil {
		return err
	}
	return nil
}

// dedX returns the global x of the dedicated track for an endpoint.
func (b *builder) dedX(step, blk, code int) (int, error) {
	rank, ok := b.dedRank[[3]int{step, blk, code}]
	if !ok {
		return 0, fmt.Errorf("thompson: missing dedicated rank for step %d block %d code %d", step, blk, code)
	}
	if rank >= b.dedWidth[step] {
		return 0, fmt.Errorf("thompson: dedicated rank %d exceeds width %d", rank, b.dedWidth[step])
	}
	gc := b.gcOf(blk)
	base := b.res.blockX0(gc) + b.res.stageXLoc[step] + b.res.NodeSide + b.intraWidth[step]
	return base + rank, nil
}

// gapY returns the global y of the row-gap run slot for an endpoint
// (level-3 links only).
func (b *builder) gapY(step, blk, code int) (int, error) {
	rank, ok := b.gapRank[[3]int{step, blk, code}]
	if !ok {
		return 0, fmt.Errorf("thompson: missing gap rank for step %d block %d code %d", step, blk, code)
	}
	capacity := b.rowsPer * b.res.gapH
	if rank >= capacity {
		return 0, fmt.Errorf("thompson: gap rank %d exceeds capacity %d", rank, capacity)
	}
	gr := b.grOf(blk)
	lr := rank / b.res.gapH
	slot := rank % b.res.gapH
	return b.res.blockY0(gr) + lr*b.res.rowPitch + b.res.NodeSide + slot, nil
}

func (b *builder) realizeInter() error {
	res := b.res
	// Collinear track assignments for the band (rows) and regions (cols).
	var rowTA, colTA *collinear.TrackAssignment
	rowTrack := map[[2]int]int{}
	colTrack := map[[2]int]int{}
	if b.m2 > 1 {
		var err error
		rowTA, err = collinear.Optimal(b.m2)
		if err != nil {
			return fmt.Errorf("thompson: row band layout: %v", err)
		}
		if !b.noReorder {
			rowTA.ReorderByDescendingSpan()
		}
		for _, lk := range rowTA.Links {
			rowTrack[[2]int{lk.A, lk.B}] = lk.Track
		}
	}
	if b.m3 > 1 {
		var err error
		colTA, err = collinear.Optimal(b.m3)
		if err != nil {
			return fmt.Errorf("thompson: column region layout: %v", err)
		}
		if !b.noReorder {
			colTA.ReorderByDescendingSpan()
		}
		for _, lk := range colTA.Links {
			colTrack[[2]int{lk.A, lk.B}] = lk.Track
		}
	}

	// Copy counters per (step, gridRowOrCol, pair).
	copyIdx := make(map[[4]int]int)

	for idx, il := range b.inter {
		fb, tb := b.blockOf(il.fromRow), b.blockOf(il.toRow)
		outCode := idx*2 + 1
		inCode := idx * 2
		pya := b.portY(il.fromRow, b.slotOut(il.level, il.fromRow, il.toRow))
		pyb := b.portY(il.toRow, b.slotIn(il.level, il.fromRow, il.toRow))
		pa := geom.Point{X: b.nodeEastX(il.fromRow, il.step), Y: pya}
		pb := geom.Point{X: b.nodeWestX(il.toRow, il.step+1), Y: pyb}
		dax, err := b.dedX(il.step, fb, outCode)
		if err != nil {
			return err
		}
		dbx, err := b.dedX(il.step, tb, inCode)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("x%d-%d.%d", il.fromRow, il.toRow, il.step)

		if il.level == 2 {
			gr := b.grOf(fb)
			a, c := b.gcOf(fb), b.gcOf(tb)
			if a > c {
				a, c = c, a
			}
			t, ok := rowTrack[[2]int{a, c}]
			if !ok {
				return fmt.Errorf("thompson: no row track for pair (%d,%d)", a, c)
			}
			key := [4]int{il.step, gr, a, c}
			cp := copyIdx[key]
			copyIdx[key]++
			if cp >= b.c2 {
				return fmt.Errorf("thompson: row pair (%d,%d) uses %d copies > c2=%d", a, c, cp+1, b.c2)
			}
			trackIdx := t*b.c2 + cp
			group := trackIdx / b.perGroupH
			hL, vL := 1, 2
			if b.model == grid.Multilayer {
				hL, vL = b.rowLinkLayers(group)
			}
			ty := res.blockY0(gr) + res.BlockH + trackIdx%b.perGroupH
			if err := res.L.AddWireOnLayers(label, hL, vL,
				pa,
				geom.Point{X: dax, Y: pya},
				geom.Point{X: dax, Y: ty},
				geom.Point{X: dbx, Y: ty},
				geom.Point{X: dbx, Y: pyb},
				pb,
			); err != nil {
				return err
			}
			continue
		}

		// level 3: column link
		gc := b.gcOf(fb)
		a, c := b.grOf(fb), b.grOf(tb)
		if a > c {
			a, c = c, a
		}
		t, ok := colTrack[[2]int{a, c}]
		if !ok {
			return fmt.Errorf("thompson: no column track for pair (%d,%d)", a, c)
		}
		key := [4]int{il.step, gc, a, c}
		cp := copyIdx[key]
		copyIdx[key]++
		if cp >= b.c3 {
			return fmt.Errorf("thompson: column pair (%d,%d) uses %d copies > c3=%d", a, c, cp+1, b.c3)
		}
		trackIdx := t*b.c3 + cp
		group := trackIdx / b.perGroupV
		hL, vL := 1, 2
		if b.model == grid.Multilayer {
			hL, vL = b.colLinkLayers(group)
		}
		tx := res.blockX0(gc) + res.BlockW + trackIdx%b.perGroupV
		gya, err := b.gapY(il.step, fb, outCode)
		if err != nil {
			return err
		}
		gyb, err := b.gapY(il.step, tb, inCode)
		if err != nil {
			return err
		}
		if err := res.L.AddWireOnLayers(label, hL, vL,
			pa,
			geom.Point{X: dax, Y: pya},
			geom.Point{X: dax, Y: gya},
			geom.Point{X: tx, Y: gya},
			geom.Point{X: tx, Y: gyb},
			geom.Point{X: dbx, Y: gyb},
			geom.Point{X: dbx, Y: pyb},
			pb,
		); err != nil {
			return err
		}
	}
	return nil
}

// Stats measures the built layout.
func (r *Result) Stats() grid.Stats { return r.L.Stats() }

// PredictedDims returns the closed-form footprint of the construction:
// width = gridCols * blockW + (gridCols of column regions) * colW, and
// height likewise with bands. The measured bounding box equals this up
// to unused slack in the outermost band/region (at most one band and one
// region).
func (r *Result) PredictedDims() (w, h int) {
	w = r.GridCols * (r.BlockW + r.ColW)
	h = r.GridRows * (r.BlockH + r.BandH)
	return w, h
}

// BlockFloorArea returns the layer-independent part of the footprint:
// the area the blocks alone would occupy with zero inter-block tracks.
// It is the concrete o() term of Theorem 4.1 at finite n.
func (r *Result) BlockFloorArea() int64 {
	return int64(r.GridCols*r.BlockW) * int64(r.GridRows*r.BlockH)
}

// Validate runs the full Thompson-rule validator including node-interior
// and terminal checks.
func (r *Result) Validate() error {
	return r.L.Validate(grid.ValidateOptions{
		CheckNodeInteriors:      true,
		RequireTerminalsOnNodes: true,
	})
}
