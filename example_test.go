package bfvlsi_test

import (
	"fmt"

	"bfvlsi"
)

// Build the paper's optimal Thompson-model layout of a small butterfly
// and inspect its measured structure.
func ExampleLayoutButterfly() {
	res, err := bfvlsi.LayoutButterfly(6)
	if err != nil {
		panic(err)
	}
	if err := res.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("spec %v, blocks %dx%d, band tracks %d\n",
		res.Spec, res.GridRows, res.GridCols, res.BandH)
	fmt.Printf("wires %d, nodes %d\n", len(res.L.Wires), len(res.L.Nodes))
	// Output:
	// spec (2,2,2), blocks 4x4, band tracks 16
	// wires 768, nodes 448
}

// Transform an indirect swap network into a butterfly and verify the
// automorphism exactly (Section 2.2).
func ExampleTransform() {
	spec, _ := bfvlsi.NewGroupSpec(1, 1)
	sb := bfvlsi.Transform(spec)
	fmt.Println("rows:", sb.Rows, "stages:", sb.Stages)
	fmt.Println("verified:", sb.VerifyAutomorphism() == nil)
	fmt.Println("row label of (1,2):", sb.RowLabel[sb.ID(1, 2)])
	// Output:
	// rows: 4 stages: 3
	// verified: true
	// row label of (1,2): 2
}

// The strictly optimal collinear layout of K_9 from Figure 4.
func ExampleCollinearKN() {
	ta, err := bfvlsi.CollinearKN(9)
	if err != nil {
		panic(err)
	}
	fmt.Println("tracks:", ta.NumTracks)
	fmt.Println("matches floor(N^2/4):", ta.NumTracks == 81/4)
	// Output:
	// tracks: 20
	// matches floor(N^2/4): true
}

// The Section 5.2 worked example: a 9-dimensional butterfly on 64-pin
// chips.
func ExampleDesignBoard() {
	d, err := bfvlsi.DesignBoard(9, 64, 20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d chips x %d nodes, %d off-chip links\n",
		d.NumChips, d.NodesPerChip, d.OffChipLinks)
	fmt.Println("board area L=2:", d.BoardArea(2))
	fmt.Println("board area L=8:", d.BoardArea(8))
	// Output:
	// 64 chips x 80 nodes, 56 off-chip links
	// board area L=2: 409600
	// board area L=8: 78400
}

// Packaging: only swap links leave the modules.
func ExamplePackageRows() {
	spec, _ := bfvlsi.NewGroupSpec(3, 3, 3)
	sb := bfvlsi.Transform(spec)
	st := bfvlsi.PackageRows(sb).Stats()
	fmt.Printf("modules: %d, avg off-module links per node: %.2f\n",
		st.NumModules, st.AvgOffLinksPerNode)
	// Output:
	// modules: 64, avg off-module links per node: 0.70
}

// A Benes switch routes any permutation (looping algorithm).
func ExampleNewBenes() {
	sw := bfvlsi.NewBenes(3)
	perm := []int{3, 1, 4, 1 + 4, 7, 0, 2, 6}
	perm[3] = 5
	if err := sw.Route(perm); err != nil {
		panic(err)
	}
	fmt.Println("input 0 exits at:", sw.Evaluate(0))
	fmt.Println("verified:", sw.Verify(perm) == nil)
	// Output:
	// input 0 exits at: 3
	// verified: true
}

// An FFT executed along the stages of an ISN (the dataflow fact behind
// the swap-butterfly transformation).
func ExampleFFTOnISN() {
	spec, _ := bfvlsi.NewGroupSpec(2, 2)
	in := bfvlsi.NewISN(spec)
	x := make([]complex128, in.Rows)
	for i := range x {
		x[i] = 1 // constant signal
	}
	res, err := bfvlsi.FFTOnISN(in, x)
	if err != nil {
		panic(err)
	}
	fmt.Println("comm steps:", res.CommSteps, "(n + l - 1 =", in.Spec.TotalBits()+in.Spec.Levels()-1, ")")
	fmt.Println("X[0]:", real(res.Output[0]))
	// Output:
	// comm steps: 5 (n + l - 1 = 5 )
	// X[0]: 16
}

// Route uniform random traffic on the wrapped butterfly B_4 below
// saturation: throughput matches the offered load, and every injected
// packet is accounted for.
func ExampleSimulateRouting() {
	r, err := bfvlsi.SimulateRouting(bfvlsi.RoutingParams{
		N: 4, Lambda: 0.05, Warmup: 100, Cycles: 400, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("conserved:", r.CheckConservation() == nil)
	fmt.Printf("injected %d, delivered %d, backlog %d\n", r.Injected, r.Delivered, r.Backlog)
	fmt.Printf("throughput %.4f, mean hops %.2f\n", r.Throughput, r.AvgHops)
	// Output:
	// conserved: true
	// injected 1309, delivered 1309, backlog 16
	// throughput 0.0511, mean hops 4.63
}

// Estimate the saturation injection rate of B_3 and B_5 by bisection:
// the stable rate falls as the dimension grows (Theta(1/log R)).
func ExampleSaturationRate() {
	opts := bfvlsi.SaturationOptions{Warmup: 100, Cycles: 300, Steps: 6, Seed: 1}
	for _, n := range []int{3, 5} {
		rate, err := bfvlsi.SaturationRate(n, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("n=%d: %.4f\n", n, rate)
	}
	// Output:
	// n=3: 0.6406
	// n=5: 0.2656
}
