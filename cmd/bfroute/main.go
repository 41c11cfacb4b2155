// Command bfroute drives the synchronous packet-routing simulator: load
// sweeps, saturation search, traffic patterns, and module-boundary
// traffic measurement.
//
// Usage:
//
//	bfroute -n 6 -lambda 0.2                 # one run, uniform traffic
//	bfroute -n 6 -lambda 0.2 -pattern bitrev # adversarial pattern
//	bfroute -n 6 -saturate                   # bisection for lambda*
//	bfroute -n 6 -sweep                      # load sweep table
//	bfroute -n 6 -lambda 0.2 -modrows 8      # boundary traffic per module
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"bfvlsi/internal/packaging"
	"bfvlsi/internal/routing"
)

var (
	dim      = flag.Int("n", 6, "butterfly dimension")
	lambda   = flag.Float64("lambda", 0.1, "per-node injection probability")
	warmup   = flag.Int("warmup", 300, "warmup cycles")
	cycles   = flag.Int("cycles", 1000, "measured cycles")
	seed     = flag.Int64("seed", 1, "random seed")
	pattern  = flag.String("pattern", "uniform", "traffic pattern: uniform | bitrev | transpose | complement | shuffle")
	saturate = flag.Bool("saturate", false, "search for the saturation rate")
	sweep    = flag.Bool("sweep", false, "run a load sweep")
	modRows  = flag.Int("modrows", 0, "rows per module for boundary-traffic measurement (0 = off)")
	buffers  = flag.Int("buffers", 0, "per-link buffer limit (0 = unbounded)")
	tracePth = flag.String("trace", "", "write a per-cycle CSV trace to this file")
)

// usageError reports a bad flag value, prints the usage, and exits 2, so
// misuse never reaches the simulator as a panic.
func usageError(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bfroute: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func validateFlags() {
	if *dim < 1 || *dim > 14 {
		usageError("-n %d out of range [1,14]", *dim)
	}
	if *lambda <= 0 || *lambda > 1 {
		usageError("-lambda %v outside (0,1]", *lambda)
	}
	if *warmup < 0 {
		usageError("-warmup %d is negative", *warmup)
	}
	if *cycles <= 0 {
		usageError("-cycles %d must be positive", *cycles)
	}
	if *modRows < 0 {
		usageError("-modrows %d is negative", *modRows)
	}
	if *buffers < 0 {
		usageError("-buffers %d is negative", *buffers)
	}
}

func main() {
	flag.Parse()
	validateFlags()
	pat, err := routing.ParsePattern(*pattern)
	if err != nil {
		usageError("%v", err)
	}
	switch {
	case *saturate:
		runSaturate()
	case *sweep:
		runSweep(pat)
	default:
		runOnce(pat)
	}
}

func params(l float64) routing.Params {
	p := routing.Params{
		N: *dim, Lambda: l, Warmup: *warmup, Cycles: *cycles, Seed: *seed,
		BufferLimit: *buffers,
	}
	if *modRows > 0 {
		rows := 1 << uint(*dim)
		p.ModuleOf = make([]int, *dim*rows)
		for col := 0; col < *dim; col++ {
			for row := 0; row < rows; row++ {
				p.ModuleOf[col*rows+row] = row / *modRows
			}
		}
	}
	return p
}

func runOnce(pat routing.Pattern) {
	p := params(*lambda)
	var trace *os.File
	if *tracePth != "" {
		f, err := os.Create(*tracePth)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace = f
		p.Trace = f
	}
	r, err := routing.SimulatePattern(p, pat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The trace is complete once the simulation returns; closing here
	// surfaces any buffered write failure before the file is advertised.
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("B_%d wrapped, %v traffic, lambda=%.4f over %d cycles:\n", *dim, pat, *lambda, *cycles)
	fmt.Printf("  throughput:   %.4f pkts/node/cycle (%.1f%% of offered)\n",
		r.Throughput, 100*r.Throughput / *lambda)
	fmt.Printf("  avg latency:  %.2f cycles (avg hops %.2f)\n", r.AvgLatency, r.AvgHops)
	fmt.Printf("  backlog:      %d packets (max queue %d)\n", r.Backlog, r.MaxQueue)
	if *buffers > 0 {
		fmt.Printf("  backpressure: %d stalls, %d injection drops\n", r.Stalls, r.InjectionDrops)
	}
	if *tracePth != "" {
		fmt.Printf("  trace:        %s\n", *tracePth)
	}
	if *modRows > 0 {
		rows := 1 << uint(*dim)
		modules := rows / *modRows
		fmt.Printf("  boundary:     %.2f crossings/cycle (%.2f per module; Omega(M/log R) = %.2f)\n",
			r.BoundaryCrossingsPerCycle,
			r.BoundaryCrossingsPerCycle/float64(modules),
			packaging.InjectionLowerBound(*modRows**dim, rows))
	}
}

func runSweep(pat routing.Pattern) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "lambda\tthroughput\tefficiency\tlatency\tbacklog\n")
	theory := routing.TheoreticalSaturation(*dim)
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.3} {
		l := theory * frac
		r, err := routing.SimulatePattern(params(l), pat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%.4f\t%.4f\t%.1f%%\t%.1f\t%d\n",
			l, r.Throughput, 100*r.Throughput/l, r.AvgLatency, r.Backlog)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("(fluid-limit saturation for n=%d: %.4f)\n", *dim, theory)
}

func runSaturate() {
	rate, err := routing.SaturationRate(*dim, routing.SaturationOptions{
		Warmup: *warmup, Cycles: *cycles, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("B_%d: simulated saturation lambda* = %.4f (x n = %.3f; fluid limit %.4f)\n",
		*dim, rate, rate*float64(*dim), routing.TheoreticalSaturation(*dim))
}
