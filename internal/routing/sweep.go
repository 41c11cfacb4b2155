package routing

import (
	"context"
	"runtime"

	"bfvlsi/internal/par"
)

// SweepPoint is one load point of a parallel sweep.
type SweepPoint struct {
	Lambda float64
	Result *Result
	Err    error
}

// ParallelSweep simulates the given loads concurrently (one goroutine per
// available CPU, capped) and returns the results in input order. Each run
// derives its seed deterministically from base.Seed and its index, so the
// sweep is reproducible regardless of scheduling.
func ParallelSweep(base Params, lambdas []float64, pattern Pattern) []SweepPoint {
	out := make([]SweepPoint, len(lambdas))
	// Per-point errors stay in out, so f never fails and For cannot.
	_ = par.For(context.Background(), len(lambdas), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		p := base
		p.Lambda = lambdas[i]
		p.Seed = base.Seed + int64(i)*1_000_003
		r, err := SimulatePattern(p, pattern)
		out[i] = SweepPoint{Lambda: lambdas[i], Result: r, Err: err}
		return nil
	})
	return out
}

// SaturationFromSweep estimates the saturation rate from a sweep: the
// largest load whose delivered throughput is at least eff times the
// offered load (0 if none qualifies).
func SaturationFromSweep(points []SweepPoint, eff float64) float64 {
	best := 0.0
	for _, pt := range points {
		if pt.Err != nil || pt.Result == nil || pt.Lambda <= 0 {
			continue
		}
		if pt.Result.Throughput >= eff*pt.Lambda && pt.Lambda > best {
			best = pt.Lambda
		}
	}
	return best
}
