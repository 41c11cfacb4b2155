package routing

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestSimulateParamValidation(t *testing.T) {
	if _, err := Simulate(Params{N: 0, Lambda: 0.1, Cycles: 10}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Simulate(Params{N: 3, Lambda: -0.1, Cycles: 10}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := Simulate(Params{N: 3, Lambda: 0.1, Cycles: 0}); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := Simulate(Params{N: 3, Lambda: 0.1, Cycles: 10, ModuleOf: []int{1}}); err == nil {
		t.Error("bad ModuleOf accepted")
	}
}

// TestNewSimRejectsRunsPastPacketFields checks the run-length bounds
// that keep a packet's int32 birth cycle and hop count exact: a negative
// warmup (which would shrink the run while Throughput still divides by
// Cycles) and a warmup+cycles past MaxInt32, including sums that would
// overflow int.
func TestNewSimRejectsRunsPastPacketFields(t *testing.T) {
	cases := []struct {
		name           string
		warmup, cycles int
	}{
		{"negative warmup", -5, 10},
		{"run past int32", 1, math.MaxInt32},
		{"warmup past int32", math.MaxInt32, 1},
		{"sum overflows int", 10, math.MaxInt - 5},
	}
	for _, tc := range cases {
		if _, err := NewSim(Params{N: 3, Lambda: 0.1, Warmup: tc.warmup, Cycles: tc.cycles}, Uniform); err == nil {
			t.Errorf("%s: warmup %d, cycles %d accepted", tc.name, tc.warmup, tc.cycles)
		}
	}
	if _, err := NewSim(Params{N: 3, Lambda: 0.1, Warmup: 0, Cycles: math.MaxInt32}, Uniform); err != nil {
		t.Errorf("run of exactly MaxInt32 cycles rejected: %v", err)
	}
}

// TestPacketLayout pins the sizes of the simulator's per-cycle records:
// its cost at large n is the memory its queues and arrivals touch, so a
// widened field is a performance regression (EXPERIMENTS.md E24).
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(packet{}); got != 24 {
		t.Errorf("packet is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(arrival{}); got != 32 {
		t.Errorf("arrival is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(ring{}); got != 16 {
		t.Errorf("ring is %d bytes, want 16", got)
	}
}

func TestConservationLowLoad(t *testing.T) {
	// Well below saturation every injected packet is eventually
	// delivered: injected = delivered + backlog (counting warmup too we
	// only check delivered+backlog >= measured injected).
	r, err := Simulate(Params{N: 4, Lambda: 0.05, Warmup: 200, Cycles: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Throughput must track offered load closely.
	if r.Throughput < 0.045 || r.Throughput > 0.055 {
		t.Errorf("throughput %v far from offered 0.05", r.Throughput)
	}
	// Backlog should be tiny at 5% load.
	if r.Backlog > r.Nodes {
		t.Errorf("backlog %d too large for low load", r.Backlog)
	}
}

func TestZeroLoad(t *testing.T) {
	r, err := Simulate(Params{N: 3, Lambda: 0, Cycles: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Injected != 0 || r.Delivered != 0 || r.Backlog != 0 {
		t.Errorf("zero-load run moved packets: %+v", r)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	p := Params{N: 3, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 42}
	a, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestPathLenProperties(t *testing.T) {
	n := 4
	rows := 1 << uint(n)
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < n; dc++ {
			h := pathLen(n, 0, 0, dr, dc)
			if h < 0 || h > 2*n-1 {
				t.Fatalf("path length %d out of range to (%d,%d)", h, dr, dc)
			}
			if dr == 0 && dc == 0 && h != 0 {
				t.Fatalf("self path length %d", h)
			}
		}
	}
}

func TestAvgHopsMatchesExpectedHops(t *testing.T) {
	// Measured mean hop count at low load must match the analytic mean.
	n := 4
	want := ExpectedHops(n)
	r, err := Simulate(Params{N: n, Lambda: 0.03, Warmup: 200, Cycles: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.AvgHops-want) > 0.15 {
		t.Errorf("avg hops %v, analytic %v", r.AvgHops, want)
	}
}

func TestExpectedHopsThetaN(t *testing.T) {
	// E[hops] grows linearly in n: ratio to n settles around ~1.5.
	for _, n := range []int{3, 5, 7, 9} {
		e := ExpectedHops(n)
		if e < float64(n) || e > 2*float64(n) {
			t.Errorf("n=%d: E[hops]=%v outside [n, 2n]", n, e)
		}
	}
}

// The headline experiment: saturation rate scales as Theta(1/log R).
func TestSaturationScalesAsOneOverN(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep skipped in -short mode")
	}
	products := make([]float64, 0, 3)
	for _, n := range []int{3, 5, 7} {
		rate, err := SaturationRate(n, SaturationOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if rate <= 0 || rate >= 1 {
			t.Fatalf("n=%d: degenerate saturation rate %v", n, rate)
		}
		products = append(products, rate*float64(n))
	}
	// lambda* x n should be near the analytic constant 2/1.5 = 4/3,
	// and roughly flat across n (within 2x).
	min, max := products[0], products[0]
	for _, p := range products {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max/min > 2.0 {
		t.Errorf("lambda* x n not flat: %v", products)
	}
	for i, p := range products {
		if p < 0.5 || p > 2.5 {
			t.Errorf("product %d = %v outside plausible band around 4/3", i, p)
		}
	}
}

func TestSaturationNearTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	n := 5
	rate, err := SaturationRate(n, SaturationOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	theory := TheoreticalSaturation(n)
	if rate < 0.4*theory || rate > 1.3*theory {
		t.Errorf("measured saturation %v vs fluid-limit %v", rate, theory)
	}
}

func TestBoundaryCrossingMeasurement(t *testing.T) {
	// Partition columns-with-rows modules: module = row block of 2 rows.
	n := 3
	rows := 1 << uint(n)
	moduleOf := make([]int, n*rows)
	for col := 0; col < n; col++ {
		for row := 0; row < rows; row++ {
			moduleOf[col*rows+row] = row / 2
		}
	}
	r, err := Simulate(Params{N: n, Lambda: 0.05, Warmup: 100, Cycles: 1000, Seed: 5, ModuleOf: moduleOf})
	if err != nil {
		t.Fatal(err)
	}
	if r.BoundaryCrossingsPerCycle <= 0 {
		t.Error("no boundary crossings measured")
	}
	// Crossings per cycle cannot exceed total link moves per cycle.
	if r.BoundaryCrossingsPerCycle > float64(2*n*rows) {
		t.Errorf("crossings per cycle %v exceeds link capacity", r.BoundaryCrossingsPerCycle)
	}
}

func BenchmarkSimulateN6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(Params{N: 6, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFiniteBuffersBoundQueues(t *testing.T) {
	r, err := Simulate(Params{
		N: 4, Lambda: 0.9, Warmup: 100, Cycles: 500, Seed: 21, BufferLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxQueue > 4 {
		t.Errorf("max queue %d exceeds buffer limit 4", r.MaxQueue)
	}
	if r.InjectionDrops == 0 {
		t.Error("overload with tiny buffers should drop injections")
	}
	if r.Stalls == 0 {
		t.Error("overload with tiny buffers should stall packets")
	}
}

func TestFiniteBuffersThroughputBelowInfinite(t *testing.T) {
	lambda := 0.9 * TheoreticalSaturation(4)
	inf, err := Simulate(Params{N: 4, Lambda: lambda, Warmup: 200, Cycles: 800, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := Simulate(Params{N: 4, Lambda: lambda, Warmup: 200, Cycles: 800, Seed: 22, BufferLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Throughput >= inf.Throughput {
		t.Errorf("1-slot buffers (%v) not worse than infinite (%v): HOL blocking missing",
			fin.Throughput, inf.Throughput)
	}
}

func TestFiniteBuffersLowLoadHarmless(t *testing.T) {
	// At very low load generous buffers change nothing.
	a, err := Simulate(Params{N: 4, Lambda: 0.02, Warmup: 100, Cycles: 1000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(Params{N: 4, Lambda: 0.02, Warmup: 100, Cycles: 1000, Seed: 23, BufferLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Injected != b.Injected {
		t.Errorf("low-load runs diverged: %d/%d vs %d/%d",
			a.Delivered, a.Injected, b.Delivered, b.Injected)
	}
	if b.InjectionDrops != 0 || b.Stalls != 0 {
		t.Errorf("low load dropped %d / stalled %d", b.InjectionDrops, b.Stalls)
	}
}

func TestTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	r, err := Simulate(Params{N: 3, Lambda: 0.1, Warmup: 20, Cycles: 50, Seed: 2, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("trace is not CSV: %v", err)
	}
	if len(recs) != 51 { // header + one line per measured cycle
		t.Fatalf("trace rows = %d, want 51", len(recs))
	}
	if recs[0][0] != "cycle" || len(recs[0]) != 4 {
		t.Errorf("header = %v", recs[0])
	}
	// Last line's cumulative delivered must match the result.
	last := recs[len(recs)-1]
	if last[2] != strconv.Itoa(r.Delivered) {
		t.Errorf("final delivered %s != %d", last[2], r.Delivered)
	}
	// Monotone cumulative counters.
	prev := -1
	for _, rec := range recs[1:] {
		v, _ := strconv.Atoi(rec[1])
		if v < prev {
			t.Fatal("injected counter not monotone")
		}
		prev = v
	}
}

// failingWriter accepts ok writes, then fails every later one.
type failingWriter struct{ ok int }

var errTraceSink = errors.New("trace sink full")

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.ok == 0 {
		return 0, errTraceSink
	}
	w.ok--
	return len(b), nil
}

// A failing trace writer surfaces as a wrapped error naming where the
// trace broke - the header at NewSim, or the first measured cycle's
// line - in both buffer modes.
func TestTraceWriteErrorsWrapped(t *testing.T) {
	for _, buffers := range []int{0, 2} {
		p := Params{N: 3, Lambda: 0.2, Warmup: 7, Cycles: 20, Seed: 4, BufferLimit: buffers}
		p.Trace = &failingWriter{}
		_, err := NewSim(p, Uniform)
		if !errors.Is(err, errTraceSink) || !strings.Contains(err.Error(), "routing: trace header: ") {
			t.Errorf("buffers=%d: header write failure gave %v", buffers, err)
		}
		p.Trace = &failingWriter{ok: 1}
		s, err := NewSim(p, Uniform)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Finish()
		if !errors.Is(err, errTraceSink) || !strings.Contains(err.Error(), "routing: trace at cycle 7: ") {
			t.Errorf("buffers=%d: per-cycle write failure gave %v", buffers, err)
		}
		if s.Cycle() != p.Warmup {
			t.Errorf("buffers=%d: run advanced to cycle %d past the failed write at %d", buffers, s.Cycle(), p.Warmup)
		}
	}
}

func TestVCNoDeadlockAtModerateLoad(t *testing.T) {
	// Regression: without virtual channels this exact configuration
	// deadlocks within a few cycles (zero deliveries, permanent backlog).
	r, err := Simulate(Params{N: 4, Lambda: 0.3, Warmup: 300, Cycles: 1000, Seed: 1, BufferLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 0.15 {
		t.Errorf("throughput %v: network appears deadlocked", r.Throughput)
	}
}

func TestVCConservationUnderBackpressure(t *testing.T) {
	// Accepted injections are either delivered or still buffered.
	r, err := Simulate(Params{N: 3, Lambda: 0.5, Warmup: 0, Cycles: 400, Seed: 9, BufferLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Injected != r.Delivered+r.Backlog {
		t.Errorf("conservation violated: injected %d != delivered %d + backlog %d",
			r.Injected, r.Delivered, r.Backlog)
	}
}
