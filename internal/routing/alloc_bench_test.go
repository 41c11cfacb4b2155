package routing

import (
	"fmt"
	"runtime"
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

// stepBenchSizes are the butterfly sizes BenchmarkStepAllocs times: the
// E24 workload at n=8, at n=10 the shape of a perfbench sim-large
// request, where the queues outgrow the CPU caches, and n=9 between
// them, the smallest size the default shard rule cuts.
var stepBenchSizes = []struct {
	name              string
	n, warmup, cycles int
}{
	{"n8", 8, 200, 800},
	{"n9", 9, 50, 200},
	{"n10", 10, 50, 200},
}

// stepBenchShards are the forced shard counts BenchmarkStepAllocs times
// every size and mode at: s1 is the serial engine, s2 the parallel step
// on two row-block shards, whatever the default shard rule would pick.
var stepBenchShards = []int{1, 2}

// BenchmarkStepAllocs measures the per-cycle cost of the simulator hot
// loop in both buffer modes at each of stepBenchSizes and
// stepBenchShards (ns/cycle and allocations). The companion
// TestStepAllocsZero pins the steady-state allocation count to zero;
// this benchmark records the speed of the loop and the parallel step's
// scaling (see EXPERIMENTS.md E24).
func BenchmarkStepAllocs(b *testing.B) {
	for _, sz := range stepBenchSizes {
		for _, bc := range allocModes {
			for _, shards := range stepBenchShards {
				b.Run(fmt.Sprintf("%s/%s/s%d", sz.name, bc.name, shards), func(b *testing.B) {
					ForceShards(b, shards)
					p := allocBenchParams(bc.bufferLimit, sz.cycles)
					p.N, p.Warmup = sz.n, sz.warmup
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
	}
}

// marginalAllocsPerCycle returns the allocations attributable to one
// additional measured cycle: total allocations of a (warmup+2C)-cycle run
// minus a (warmup+C)-cycle run, divided by C. Setup allocations (queues,
// rng, result) cancel in the difference, so the value isolates the
// steady-state per-cycle loop. Runs are seeded identically; the longer
// run replays the shorter one's random stream exactly, then keeps going.
// faults is attached as the run's fault model (nil for the bare loop).
//
// The count is process-wide, so it also sees the runtime's own one-time
// allocations when the process's first GC cycle starts its mark-worker
// goroutines (eight objects). A run's allocation must not be what
// decides whether that start-up lands inside a measured window: a forced
// GC starts the workers first.
func marginalAllocsPerCycle(t *testing.T, bufferLimit int, faults FaultModel) float64 {
	t.Helper()
	const c = 300
	runtime.GC()
	run := func(cycles int) float64 {
		p := allocBenchParams(bufferLimit, cycles)
		p.Faults = faults
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(2*c) - run(c)) / c
}

// allocModes are the two buffer modes the hot-loop benchmark and the
// allocation guard cover.
var allocModes = []struct {
	name        string
	bufferLimit int
}{
	{"plain", 0},
	{"vc", 4},
}

// TestStepAllocsZero is the allocation regression guard for the
// simulator cycle loop: in steady state it may not allocate in either
// buffer mode, serial or on two shards. Queue buffers, the arrivals and
// handoff scratch, and the VC credit table all reach their high-water
// capacity during the first measured block and are reused from then on,
// and the worker team starts once a run, so the marginal cycle cost is
// exactly zero. The shard count is forced: AllocsPerRun sets GOMAXPROCS
// to 1, under which the default rule never shards.
func TestStepAllocsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady-state run skipped in -short mode")
	}
	for _, bc := range allocModes {
		t.Run(bc.name, func(t *testing.T) {
			for _, shards := range stepBenchShards {
				t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
					ForceShards(t, shards)
					if got := marginalAllocsPerCycle(t, bc.bufferLimit, nil); got != 0 {
						t.Errorf("steady-state hot loop allocates %g times per cycle, want 0", got)
					}
				})
			}
		})
	}
}

// linkProbe is a fault model without faults. Sim.moveRow asks it
// LinkDown once per occupied queue, from inside the link loop, so with
// alloc set it plants one heap allocation per call in the loop body.
type linkProbe struct{ alloc bool }

var linkProbeSink []int

func (linkProbe) BeginCycle(int)    {}
func (linkProbe) NodeDown(int) bool { return false }
func (f linkProbe) LinkDown(node, out int) bool {
	if f.alloc {
		linkProbeSink = make([]int, 1)
	}
	return false
}

// TestStepAllocsZeroCatchesHotLoopAllocation is the guard's mutation
// test: the same fault model measures zero without the planted
// allocation and thousands per cycle with it, so an allocation added to
// the cycle loop fails TestStepAllocsZero rather than slipping past it.
// Both buffer modes run the one traverse loop, so plain mode suffices.
func TestStepAllocsZeroCatchesHotLoopAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady-state run skipped in -short mode")
	}
	if got := marginalAllocsPerCycle(t, 0, linkProbe{}); got != 0 {
		t.Fatalf("fault model without the planted allocation measures %g allocs/cycle, want 0", got)
	}
	if got := marginalAllocsPerCycle(t, 0, linkProbe{alloc: true}); got < 1 {
		t.Errorf("planted hot-loop allocation measures %g allocs/cycle, want at least 1", got)
	}
}
