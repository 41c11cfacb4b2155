package routing

import (
	"testing"

	"bfvlsi/internal/detrng"
)

func TestDestForPermutations(t *testing.T) {
	rng := detrng.New(1)
	n := 6
	rows := 1 << uint(n)
	for _, p := range []Pattern{BitReverse, Transpose, Complement, Shuffle} {
		seen := make([]bool, rows)
		for r := 0; r < rows; r++ {
			dr, dc := destFor(p, n, rows, r, 3, rng)
			if dc != 3 {
				t.Fatalf("%v: column changed to %d", p, dc)
			}
			if dr < 0 || dr >= rows || seen[dr] {
				t.Fatalf("%v: destination %d invalid or repeated", p, dr)
			}
			seen[dr] = true
		}
	}
}

func TestDestForInvolutions(t *testing.T) {
	rng := detrng.New(2)
	for _, n := range []int{4, 5, 6, 7} {
		rows := 1 << uint(n)
		for _, p := range []Pattern{BitReverse, Transpose, Complement} {
			for r := 0; r < rows; r++ {
				d1, _ := destFor(p, n, rows, r, 0, rng)
				d2, _ := destFor(p, n, rows, d1, 0, rng)
				if d2 != r {
					t.Fatalf("%v n=%d: not an involution at %d (%d -> %d)", p, n, r, d1, d2)
				}
			}
		}
	}
}

// Shuffle is a cyclic rotation, not an involution: applying it n times
// (one full rotation of the n row bits) must return every row to
// itself, and applying it fewer times must not fix a row like 1 (a
// single set bit keeps moving until it wraps).
func TestShuffleHasOrderN(t *testing.T) {
	rng := detrng.New(5)
	for _, n := range []int{2, 3, 5, 8} {
		rows := 1 << uint(n)
		for r := 0; r < rows; r++ {
			cur := r
			for i := 0; i < n; i++ {
				if i > 0 && r == 1 && cur == r {
					t.Fatalf("n=%d: shuffle fixed row 1 after only %d applications", n, i)
				}
				d, c := destFor(Shuffle, n, rows, cur, 2, rng)
				if c != 2 {
					t.Fatalf("shuffle moved the column to %d", c)
				}
				cur = d
			}
			if cur != r {
				t.Fatalf("n=%d: shuffle^%d(%d) = %d, want identity", n, n, r, cur)
			}
		}
	}
}

func TestPatternStrings(t *testing.T) {
	if Uniform.String() != "uniform" || BitReverse.String() != "bit-reverse" {
		t.Error("pattern names wrong")
	}
	if Shuffle.String() != "shuffle" {
		t.Error("shuffle name wrong")
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern empty string")
	}
}

func TestSimulatePatternConservation(t *testing.T) {
	for _, p := range []Pattern{Uniform, BitReverse, Transpose, Complement, Shuffle} {
		r, err := SimulatePattern(Params{
			N: 4, Lambda: 0.05, Warmup: 100, Cycles: 800, Seed: 3,
		}, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.Delivered == 0 {
			t.Errorf("%v: nothing delivered", p)
		}
		if r.Throughput > 0.06 {
			t.Errorf("%v: throughput %v exceeds offered load", p, r.Throughput)
		}
	}
}

// Bit-reversal is the classic butterfly adversary: at a load the uniform
// pattern absorbs comfortably, bit-reversal saturates (backlog piles up).
func TestBitReverseIsAdversarial(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary comparison skipped in -short mode")
	}
	n := 7
	lambda := 0.9 * TheoreticalSaturation(n)
	uni, err := SimulatePattern(Params{N: n, Lambda: lambda, Warmup: 300, Cycles: 900, Seed: 7}, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := SimulatePattern(Params{N: n, Lambda: lambda, Warmup: 300, Cycles: 900, Seed: 7}, BitReverse)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Backlog <= 2*uni.Backlog {
		t.Errorf("bit-reverse backlog %d not clearly worse than uniform %d", rev.Backlog, uni.Backlog)
	}
	if rev.Throughput >= uni.Throughput {
		t.Errorf("bit-reverse throughput %v not worse than uniform %v", rev.Throughput, uni.Throughput)
	}
}

// Shuffle stresses the network differently from bit-reversal: the
// dimension-order router spreads the rotated addresses well enough that
// aggregate backlog stays below uniform's, but the funneled row halves
// concentrate queueing - at saturation load the deepest queue is about
// twice as deep as under uniform traffic, and every packet needs the
// full n hops (all n rotated bits disagree in general).
func TestShuffleVsUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("pattern comparison skipped in -short mode")
	}
	n := 7
	lambda := TheoreticalSaturation(n)
	uni, err := SimulatePattern(Params{N: n, Lambda: lambda, Warmup: 300, Cycles: 900, Seed: 7}, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := SimulatePattern(Params{N: n, Lambda: lambda, Warmup: 300, Cycles: 900, Seed: 7}, Shuffle)
	if err != nil {
		t.Fatal(err)
	}
	if shuf.MaxQueue*2 <= uni.MaxQueue*3 {
		t.Errorf("shuffle max queue %d not clearly deeper than uniform %d", shuf.MaxQueue, uni.MaxQueue)
	}
	if shuf.AvgHops != float64(n) {
		t.Errorf("shuffle hops %v, want exactly %d", shuf.AvgHops, n)
	}
}

func TestComplementHopsExactlyN(t *testing.T) {
	// Complement traffic keeps the column and flips every row bit: the
	// deterministic route takes exactly n hops for every packet (one
	// full wrap of the stages, correcting one bit each), so the measured
	// mean must be exactly n at low load.
	n := 5
	comp, err := SimulatePattern(Params{N: n, Lambda: 0.02, Warmup: 200, Cycles: 2000, Seed: 11}, Complement)
	if err != nil {
		t.Fatal(err)
	}
	if comp.AvgHops != float64(n) {
		t.Errorf("complement hops %v, want exactly %d", comp.AvgHops, n)
	}
}

// unknownPatterns lie just outside the valid range and far beyond it.
var unknownPatterns = []Pattern{Shuffle + 1, -1, 99}

// TestNewSimRejectsUnknownPattern checks that an unknown pattern fails
// at construction, at λ=0 too, where no cycle would ever draw a
// destination.
func TestNewSimRejectsUnknownPattern(t *testing.T) {
	for _, lambda := range []float64{0, 0.3} {
		for _, pat := range unknownPatterns {
			if _, err := NewSim(Params{N: 3, Lambda: lambda, Cycles: 10}, pat); err == nil {
				t.Errorf("λ=%v: NewSim accepted %v", lambda, pat)
			}
		}
	}
}

// TestRestoreSimRejectsUnknownPattern checks that a valid state does
// not restore under an unknown pattern.
func TestRestoreSimRejectsUnknownPattern(t *testing.T) {
	p := Params{N: 3, Lambda: 0.3, Cycles: 10}
	s, err := NewSim(p, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(5); err != nil {
		t.Fatal(err)
	}
	st := s.State()
	if _, err := RestoreSim(p, Uniform, st); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
	for _, pat := range unknownPatterns {
		if _, err := RestoreSim(p, pat, st); err == nil {
			t.Errorf("RestoreSim accepted %v", pat)
		}
	}
}
