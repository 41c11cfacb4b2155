package bfvlsi

import (
	"io"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/analysis"
	"bfvlsi/internal/benes"
	"bfvlsi/internal/bitutil"
	"bfvlsi/internal/butterfly"
	"bfvlsi/internal/ccc"
	"bfvlsi/internal/collinear"
	"bfvlsi/internal/cubelayout"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/fftsim"
	"bfvlsi/internal/grid"
	"bfvlsi/internal/hierarchy"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/reliable"
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

// SimulateRouting runs the synchronous uniform-random-traffic simulation
// on the wrapped n-dimensional butterfly.
func SimulateRouting(p routing.Params) (*routing.Result, error) { return routing.Simulate(p) }

// RoutingParams configures SimulateRouting.
type RoutingParams = routing.Params

// SaturationRate estimates the maximum stable injection rate of the
// wrapped B_n (Theta(1/log R), the packaging lower-bound scaling).
func SaturationRate(n int, opts routing.SaturationOptions) (float64, error) {
	return routing.SaturationRate(n, opts)
}

// FaultPlan is a deterministic, seeded fault schedule for the wrapped
// butterfly: link faults, node faults, module-correlated faults, transient
// faults with repair. Attach one via RoutingParams.Faults.
type FaultPlan = faults.Plan

// NewFaultPlan returns an empty fault plan for dimension n.
func NewFaultPlan(n int) (*FaultPlan, error) { return faults.NewPlan(n) }

// RoutingPolicy selects the router's reaction to a dead planned link:
// Misroute (fault-aware fallback, the zero value) or DropDead (naive
// baseline).
type RoutingPolicy = routing.Policy

// Re-exported routing policies.
const (
	Misroute = routing.Misroute
	DropDead = routing.DropDead
)

// DefaultPacketTTL is the packet lifetime the fault sweeps use when the
// caller sets none (16n cycles).
func DefaultPacketTTL(n int) int { return faults.DefaultTTL(n) }

// FaultScheme is a packaging variant viewed as a set of failure domains.
type FaultScheme = faults.Scheme

// StandardFaultSchemes returns the row, nucleus, and naive packagings of
// B_n as failure-domain schemes.
func StandardFaultSchemes(n int) ([]FaultScheme, error) { return faults.StandardSchemes(n) }

// ReliableConfig tunes the end-to-end retransmission transport: base
// timeout, retry budget, backoff cap, and seeded jitter.
type ReliableConfig = reliable.Config

// DefaultReliableConfig returns a retransmission schedule suited to
// dimension n under moderate load.
func DefaultReliableConfig(n int) ReliableConfig { return reliable.DefaultConfig(n) }

// ReliableTransport is the end-to-end reliable delivery layer: per-flow
// sequence numbers, timeout/backoff retransmission, duplicate
// suppression. Attach one via RoutingParams.Reliable.
type ReliableTransport = reliable.Transport

// NewReliableTransport returns a transport with the given schedule.
func NewReliableTransport(cfg ReliableConfig) (*ReliableTransport, error) {
	return reliable.New(cfg)
}

// AdaptiveConfig tunes the fault-aware adaptive router: breaker
// threshold, probe interval, detour budget, and epoch dissemination
// period.
type AdaptiveConfig = adaptive.Config

// DefaultAdaptiveConfig returns router tuning suited to dimension n.
func DefaultAdaptiveConfig(n int) AdaptiveConfig { return adaptive.DefaultConfig(n) }

// AdaptiveRouter is the online fault-aware router: per-link circuit
// breakers with seeded probing, bounded dimension-shift detours, and
// epoch link-state dissemination. Attach one via RoutingParams.Adaptive.
type AdaptiveRouter = adaptive.Router

// NewAdaptiveRouter returns a router with the given tuning.
func NewAdaptiveRouter(cfg AdaptiveConfig) (*AdaptiveRouter, error) { return adaptive.New(cfg) }

// AdaptiveStats summarizes what a router learned during a run.
type AdaptiveStats = adaptive.Stats

// SweepMode is one recovery strategy of a fault sweep: a static
// dead-link policy or the adaptive router, plus the transport riding
// along.
type SweepMode = adaptive.Mode

// SweepTransport selects the end-to-end transport of a sweep mode.
type SweepTransport = adaptive.Transport

// Re-exported sweep transports: none (the plain degradation sweep), a
// pure observer that measures payload delivery without perturbing the
// run, and live retransmission.
const (
	NoTransport         = adaptive.NoTransport
	ObserveTransport    = adaptive.Observe
	RetransmitTransport = adaptive.Retransmit
)

// StandardReliableModes returns the four strategies the E22
// retransmission sweeps compare: drop, misroute, and each with
// retransmission.
func StandardReliableModes() []SweepMode { return adaptive.ReliableModes() }

// StandardAdaptiveModes returns the four strategies the E23 sweeps
// compare: drop, misroute, adaptive, and adaptive with retransmission.
func StandardAdaptiveModes() []SweepMode { return adaptive.StandardModes() }

// SweepCell is one measured (mode, fault level) cell of a fault sweep.
type SweepCell = adaptive.Cell

// FaultSweep measures every mode over a list of link fault rates:
// permanent faults for outage 0, repairable outages of that many cycles
// otherwise. Every cell is conservation-checked.
func FaultSweep(base RoutingParams, acfg AdaptiveConfig, rcfg ReliableConfig, modes []SweepMode, rates []float64, outage int) []SweepCell {
	return adaptive.Sweep(base, acfg, rcfg, modes, rates, outage)
}

// ModuleKillSweep fails whole modules under each packaging scheme and
// measures every mode on the same wreckage - the packaging comparison of
// the fault subsystem.
func ModuleKillSweep(base RoutingParams, acfg AdaptiveConfig, rcfg ReliableConfig, modes []SweepMode, schemes []FaultScheme, kills []int) []SweepCell {
	return adaptive.ModuleKillSweep(base, acfg, rcfg, modes, schemes, kills)
}

// Pattern selects the destination distribution of injected packets.
type Pattern = routing.Pattern

// Re-exported traffic patterns for SimulateRoutingPattern.
const (
	Uniform    = routing.Uniform
	BitReverse = routing.BitReverse
	Transpose  = routing.Transpose
	Complement = routing.Complement
	Shuffle    = routing.Shuffle
)

// SimulateRoutingPattern runs the routing simulation under a
// non-uniform destination pattern (bit-reverse, transpose, complement).
func SimulateRoutingPattern(p RoutingParams, pattern Pattern) (*routing.Result, error) {
	return routing.SimulatePattern(p, pattern)
}

// RoutingSweepPoint is one (load, throughput, latency) measurement of a
// load sweep.
type RoutingSweepPoint = routing.SweepPoint

// RoutingSweep simulates the given loads concurrently and returns the
// measurements in input order, deterministically seeded per cell.
func RoutingSweep(base RoutingParams, lambdas []float64, pattern Pattern) []RoutingSweepPoint {
	return routing.ParallelSweep(base, lambdas, pattern)
}

// SaturationFromSweep estimates the saturation rate from a load sweep:
// the largest load whose delivered throughput is at least eff times the
// offered load.
func SaturationFromSweep(points []RoutingSweepPoint, eff float64) float64 {
	return routing.SaturationFromSweep(points, eff)
}

// TheoreticalSaturation returns the analytic saturation estimate for
// the wrapped B_n under uniform traffic.
func TheoreticalSaturation(n int) float64 { return routing.TheoreticalSaturation(n) }

// ExpectedHops computes the exact mean deterministic-route path length
// of the wrapped B_n under uniform random pairs.
func ExpectedHops(n int) float64 { return routing.ExpectedHops(n) }

// Hop is one step of a recorded packet trace.
type Hop = routing.Hop

// Decision is the adaptive router's per-hop routing decision.
type Decision = routing.Decision

// DeliveryVerdict classifies a copy arriving at its destination under a
// reliable transport.
type DeliveryVerdict = routing.DeliveryVerdict

// Re-exported delivery verdicts.
const (
	DeliverAccept    = routing.DeliverAccept
	DeliverDuplicate = routing.DeliverDuplicate
	DeliverGaveUp    = routing.DeliverGaveUp
)

// FaultModel is the simulator's fault-injection hook; FaultPlan
// implements it. Attach one via RoutingParams.Faults.
type FaultModel = routing.FaultModel

// TransportHook is the simulator's end-to-end delivery hook;
// ReliableTransport implements it. Attach one via RoutingParams.Reliable.
type TransportHook = routing.Transport

// AdaptiveHook is the simulator's online fault-aware routing hook;
// AdaptiveRouter implements it. Attach one via RoutingParams.Adaptive.
type AdaptiveHook = routing.AdaptiveRouter

// RetransmitCopy is one retransmission a TransportHook asks the
// simulator to inject.
type RetransmitCopy = routing.RetransmitCopy

// PickFaultModules deterministically selects k distinct module ids for
// a module-kill experiment.
func PickFaultModules(numModules, k int, seed int64) []int {
	return faults.PickModules(numModules, k, seed)
}

// FaultSchemeFromPartition wraps any packaging partition into a
// failure-domain scheme (pass nil sb for plain-butterfly partitions).
func FaultSchemeFromPartition(name string, part *Partition, sb *SwapButterfly) (FaultScheme, error) {
	return faults.PartitionScheme(name, part, sb)
}

// ReliableStats summarizes what a reliable transport did during a run.
type ReliableStats = reliable.Stats

// RoutingSim is the stepwise form of the routing simulator: construct,
// Step cycle by cycle or RunTo a cycle, capture State mid-run, Finish
// for the result.
// SimulateRouting remains the one-shot form; the stepwise form exists
// for checkpoint/resume workflows (internal/snapshot, cmd/bfsweep) and
// their distributed fan-out (internal/dispatch, cmd/bffarm), which
// ships checkpoints to a bfserve fleet and merges worker journals.
type RoutingSim = routing.Sim

// NewRoutingSim constructs a stepwise simulator from the same
// parameters as SimulateRoutingPattern.
func NewRoutingSim(p RoutingParams, pattern Pattern) (*RoutingSim, error) {
	return routing.NewSim(p, pattern)
}

// RoutingSimState is a captured mid-run simulator state: queues,
// in-flight packets, RNG position, and conservation counters. Obtain
// one from (*RoutingSim).State, rebuild with RestoreRoutingSim.
type RoutingSimState = routing.SimState

// PacketState is one in-flight packet of a captured RoutingSimState.
type PacketState = routing.PacketState

// RestoreRoutingSim rebuilds a running simulator from captured state;
// the continuation is packet-for-packet identical to the original run.
func RestoreRoutingSim(p RoutingParams, pattern Pattern, st *RoutingSimState) (*RoutingSim, error) {
	return routing.RestoreSim(p, pattern, st)
}

// ReliableTransportState is a captured reliable-transport state
// (sequence numbers, pending flows, retransmission timers, RNG
// position); see (*ReliableTransport).State and RestoreState.
type ReliableTransportState = reliable.State

// ReliablePendingState is one unacknowledged flow of a captured
// transport state.
type ReliablePendingState = reliable.PendingState

// ReliableTimerState is one pending retransmission timer of a captured
// transport state.
type ReliableTimerState = reliable.TimerState

// AdaptiveRouterState is a captured adaptive-router state (breaker
// counters, open links, dead-link map, epoch clock); see
// (*AdaptiveRouter).State and RestoreState.
type AdaptiveRouterState = adaptive.State

// The panicking constructor conveniences stay internal: the facade
// exposes only the error-returning forms.
//
//facade:exempt faults.MustPlan panicking convenience for internal sweeps and tests
//facade:exempt reliable.MustNew panicking convenience for internal sweeps and tests
//
// The detour-budget bound reaches facade users as NewAdaptiveRouter's
// error for a larger AdaptiveConfig.MaxDetours.
//
//facade:exempt routing.MaxDetours enforced by NewAdaptiveRouter, not needed by callers

// RoutingModules projects a partition onto the wrapped butterfly the
// routing simulator runs on (pass nil sb for plain-butterfly partitions),
// for use with FaultPlan.AddModuleFault.
func RoutingModules(p *Partition, sb *SwapButterfly) ([]int, error) {
	return packaging.RoutingModuleOf(p, sb)
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
func RenderSVG(w io.Writer, l *grid.Layout, opts render.Options) error {
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
