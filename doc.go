// Package bfvlsi is a complete, executable reproduction of
//
//	C.-H. Yeh, B. Parhami, E. A. Varvarigos, H. Lee,
//	"VLSI Layout and Packaging of Butterfly Networks",
//	Proc. 12th ACM Symposium on Parallel Algorithms and
//	Architectures (SPAA), 2000.
//
// The package offers a thin facade over the implementation packages in
// internal/:
//
//   - butterfly networks, hypercubes, swap networks, and indirect swap
//     networks (ISNs), with the paper's ISN -> swap-butterfly
//     transformation and an exact automorphism verifier;
//   - strictly optimal collinear layouts of complete graphs
//     (floor(N^2/4) tracks, Appendix B);
//   - optimal butterfly layouts under the Thompson model (Section 3) and
//     the multilayer 2-D grid model (Section 4), built as real validated
//     geometry with measured area, wire length, and volume;
//   - the swap-link packaging scheme (Section 2.3, Theorem 2.1) with its
//     naive baseline and injection-rate lower bound;
//   - the hierarchical layout model and the Section 5.2 chip/board
//     design engine;
//   - a synchronous packet-routing simulator and an FFT dataflow engine
//     that executes a DFT along ISN stages.
//
// The facade is the paper's API: every exported name here is callable
// from outside the module, as the examples in example_test.go show.
// The simulator's fault, retransmission, adaptive-routing and
// checkpoint machinery stays internal; cmd/bffault, cmd/bfsweep,
// cmd/bfserve and cmd/bffarm drive it.
//
// Quick start:
//
//	res, err := bfvlsi.LayoutButterfly(9) // Thompson layout of B_9
//	if err != nil { ... }
//	fmt.Println(res.Stats())              // measured area, max wire, ...
//
// The cmd/bftables binary regenerates every experiment table of
// EXPERIMENTS.md; examples/ holds runnable scenario programs.
package bfvlsi
