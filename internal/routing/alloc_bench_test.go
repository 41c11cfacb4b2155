package routing

import (
	"testing"
)

// allocBenchParams is the shared configuration of the hot-loop allocation
// benchmarks and the steady-state allocation guard: a mid-size butterfly
// under moderate load, fixed seed, no optional hooks (faults, transport,
// adaptive router, trace) so the measured loop is the bare per-cycle path.
func allocBenchParams(bufferLimit, cycles int) Params {
	return Params{
		N:           8,
		Lambda:      0.10,
		Warmup:      200,
		Cycles:      cycles,
		Seed:        42,
		BufferLimit: bufferLimit,
	}
}

// BenchmarkStepAllocs measures the per-cycle cost of the simulator hot
// loop in both buffer modes (ns/cycle and allocations). The companion TestStepAllocsZero
// pins the steady-state allocation count to zero; this benchmark records
// the speed those reuse fixes buy (see EXPERIMENTS.md).
func BenchmarkStepAllocs(b *testing.B) {
	cases := []struct {
		name        string
		bufferLimit int
	}{
		{"plain", 0},
		{"vc", 4},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			p := allocBenchParams(bc.bufferLimit, 800)
			cyclesPerRun := float64(p.Warmup + p.Cycles)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*cyclesPerRun), "ns/cycle")
		})
	}
}

// marginalAllocsPerCycle returns the allocations attributable to one
// additional measured cycle: total allocations of a (warmup+2C)-cycle run
// minus a (warmup+C)-cycle run, divided by C. Setup allocations (queues,
// rng, result) cancel in the difference, so the value isolates the
// steady-state per-cycle loop. Runs are seeded identically; the longer
// run replays the shorter one's random stream exactly, then keeps going.
func marginalAllocsPerCycle(t *testing.T, bufferLimit int) float64 {
	t.Helper()
	const c = 300
	run := func(cycles int) float64 {
		p := allocBenchParams(bufferLimit, cycles)
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(2*c) - run(c)) / c
}

// TestStepAllocsZero is the allocation regression guard behind the
// hotalloc analyzer: in steady state the simulator hot loop may not
// allocate in either buffer mode. Queue buffers, the arrivals scratch, and the VC credit table
// all reach their high-water capacity during the first measured block and
// are reused from then on, so the marginal cycle cost is exactly zero.
func TestStepAllocsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady-state run skipped in -short mode")
	}
	for _, bc := range []struct {
		name        string
		bufferLimit int
	}{
		{"plain", 0},
		{"vc", 4},
	} {
		t.Run(bc.name, func(t *testing.T) {
			if got := marginalAllocsPerCycle(t, bc.bufferLimit); got != 0 {
				t.Errorf("steady-state hot loop allocates %g times per cycle, want 0", got)
			}
		})
	}
}
