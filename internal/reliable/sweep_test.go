package reliable_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

// An observer transport never fires inside the run, so observe cells must
// reproduce no-transport cells exactly - same plans, same runs - under
// unbounded FIFOs and under finite buffers, while still measuring
// payload latency.
func TestSweepObserverIdentity(t *testing.T) {
	modes := []adaptive.Mode{
		{Name: "drop", Policy: routing.DropDead},
		{Name: "misroute", Policy: routing.Misroute},
		{Name: "drop", Policy: routing.DropDead, Transport: adaptive.Observe},
		{Name: "misroute", Policy: routing.Misroute, Transport: adaptive.Observe},
	}
	rates := []float64{0, 0.08}
	for _, buffers := range []int{0, 4} {
		base := routing.Params{N: 4, Lambda: 0.1, Warmup: 50, Cycles: 300, Seed: 21, BufferLimit: buffers}
		pts := adaptive.Sweep(base, adaptive.Config{}, reliable.DefaultConfig(4), modes, rates, 0)
		if len(pts) != len(modes)*len(rates) {
			t.Fatalf("buffers=%d: got %d points, want %d", buffers, len(pts), len(modes)*len(rates))
		}
		for _, pt := range pts {
			if pt.Err != nil {
				t.Fatal(pt.Err)
			}
		}
		half := len(pts) / 2
		for i, bare := range pts[:half] {
			obs := pts[half+i]
			if obs.DeadLinks != bare.DeadLinks {
				t.Errorf("buffers=%d %s rate %v: dead links %d vs %d", buffers, obs.Mode, obs.Rate, obs.DeadLinks, bare.DeadLinks)
			}
			if *obs.Result != *bare.Result {
				t.Errorf("buffers=%d %s rate %v: observer diverged from the bare run:\n%+v\nvs\n%+v",
					buffers, obs.Mode, obs.Rate, obs.Result, bare.Result)
			}
			if obs.Goodput != bare.Result.Throughput {
				t.Errorf("buffers=%d %s rate %v: goodput %v != throughput %v", buffers, obs.Mode, obs.Rate, obs.Goodput, bare.Result.Throughput)
			}
			if obs.P99Latency == 0 {
				t.Errorf("buffers=%d %s rate %v: observer recorded no latency percentile", buffers, obs.Mode, obs.Rate)
			}
		}
	}
}

// The full four-mode permanent-fault sweep: every cell conserves copies,
// zero-rate retx cells stay silent, and on faulted cells the retransmit
// modes pay a visible overhead. (Goodput recovery is NOT asserted here:
// with deterministic routing a retry retraces its predecessor's path
// into the same permanent hole - see TestOutageSweepRecovery for the
// regime where retransmission actually wins.)
func TestSweepModes(t *testing.T) {
	base := routing.Params{N: 5, Lambda: 0.1, Warmup: 80, Cycles: 400, Seed: 5}
	rates := []float64{0, 0.05}
	// Timeout 25 clears the fault-free latency tail (rate-0 cells stay
	// silent) while the 2-retry budget exhausts ~175 cycles after
	// injection, well inside the 480-cycle horizon, so abandonment is
	// observable.
	cfg := reliable.Config{Timeout: 25, MaxRetries: 2, Jitter: 3, Seed: 1}
	pts := adaptive.Sweep(base, adaptive.Config{}, cfg, adaptive.ReliableModes(), rates, 0)
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	byCell := map[string]adaptive.Cell{}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		byCell[fmt.Sprintf("%s@%g", pt.Mode, pt.Rate)] = pt
	}
	for _, mode := range []string{"drop+retx", "misroute+retx"} {
		clean := byCell[mode+"@0"]
		if clean.Result.Retransmitted != 0 {
			t.Errorf("%s at rate 0 retransmitted %d copies", mode, clean.Result.Retransmitted)
		}
		if clean.Outages != 0 || clean.DeadLinks != 0 {
			t.Errorf("%s at rate 0 reported damage: %d dead links, %d outages",
				mode, clean.DeadLinks, clean.Outages)
		}
	}
	if dr := byCell["drop+retx@0.05"]; dr.Overhead == 0 {
		t.Error("drop+retx at 5% permanent faults reported zero retransmission overhead")
	} else if dr.Payloads.Abandoned == 0 {
		t.Error("drop+retx at 5% permanent faults abandoned no payloads")
	}
	if d, dr := byCell["drop@0.05"], byCell["drop+retx@0.05"]; dr.DeadLinks != d.DeadLinks {
		t.Errorf("modes saw different wreckage at the same rate: %d vs %d dead links",
			dr.DeadLinks, d.DeadLinks)
	}
}

// Against repairable outages the retransmit mode must beat its bare
// policy on goodput: the retry fires after the repair and gets through.
func TestOutageSweepRecovery(t *testing.T) {
	base := routing.Params{N: 5, Lambda: 0.1, Warmup: 80, Cycles: 500, Seed: 5}
	modes := []adaptive.Mode{
		{Name: "drop", Policy: routing.DropDead, Transport: adaptive.Observe},
		{Name: "drop+retx", Policy: routing.DropDead, Transport: adaptive.Retransmit},
	}
	cfg := reliable.Config{Timeout: 20, MaxRetries: 5, Jitter: 3, Seed: 1}
	pts := adaptive.Sweep(base, adaptive.Config{}, cfg, modes, []float64{0.08}, 40)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		if pt.Outages == 0 {
			t.Fatalf("%s: no outages scheduled at rate %g", pt.Mode, pt.Rate)
		}
		if pt.DeadLinks != 0 {
			t.Errorf("%s: outage sweep reported %d permanent dead links", pt.Mode, pt.DeadLinks)
		}
	}
	bare, retx := pts[0], pts[1]
	if retx.Goodput <= bare.Goodput {
		t.Errorf("drop+retx goodput %.4f not above drop %.4f under repairable outages",
			retx.Goodput, bare.Goodput)
	}
	if retx.Overhead == 0 {
		t.Error("drop+retx recovered without any retransmissions?")
	}
	// A negative outage duration is rejected loudly.
	bad := adaptive.Sweep(base, adaptive.Config{}, cfg, modes[:1], []float64{0.05}, -1)
	if bad[0].Err == nil {
		t.Error("negative outage duration accepted")
	}
}

// The module-kill comparison runs all modes x schemes x kills with exact
// conservation and the shared module draw.
func TestModuleKillSweepReliability(t *testing.T) {
	base := routing.Params{N: 6, Lambda: 0.08, Warmup: 60, Cycles: 250, Seed: 2}
	schemes, err := faults.StandardSchemes(6)
	if err != nil {
		t.Fatal(err)
	}
	modes := []adaptive.Mode{
		{Name: "drop", Policy: routing.DropDead, Transport: adaptive.Observe},
		{Name: "drop+retx", Policy: routing.DropDead, Transport: adaptive.Retransmit},
	}
	kills := []int{0, 2}
	cfg := reliable.Config{Timeout: 40, MaxRetries: 3, Jitter: 4, Seed: 3}
	pts := adaptive.ModuleKillSweep(base, adaptive.Config{}, cfg, modes, schemes, kills)
	if want := len(modes) * len(schemes) * len(kills); len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	deadBy := map[string]int{}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		if pt.Killed == 0 && pt.DeadNodes != 0 {
			t.Errorf("%s/%s: 0 kills but %d dead nodes", pt.Mode, pt.Scheme, pt.DeadNodes)
		}
		// The module draw is shared across modes: dead node counts per
		// (scheme, kills) must agree.
		key := pt.Scheme + "#" + strconv.Itoa(pt.Killed)
		if prev, ok := deadBy[key]; ok && prev != pt.DeadNodes {
			t.Errorf("%s: dead nodes differ across modes: %d vs %d", key, prev, pt.DeadNodes)
		}
		deadBy[key] = pt.DeadNodes
	}
}

// Every sweep cell refuses base params that already carry a fault plan,
// transport or router: concurrent cells would share the hook. The
// refusal names the cell.
func TestSweepRejectsPreloadedBase(t *testing.T) {
	schemes, err := faults.StandardSchemes(4)
	if err != nil {
		t.Fatal(err)
	}
	modes := []adaptive.Mode{
		{Name: "plain"},
		{Name: "drop+retx", Policy: routing.DropDead, Transport: adaptive.Retransmit},
		{Name: "adaptive", Adaptive: true, Transport: adaptive.Observe},
	}
	hooks := []struct {
		name string
		set  func(p *routing.Params)
	}{
		{"Faults", func(p *routing.Params) { p.Faults = faults.MustPlan(4) }},
		{"Reliable", func(p *routing.Params) { p.Reliable = reliable.MustNew(reliable.DefaultConfig(4)) }},
		{"Adaptive", func(p *routing.Params) {
			rt, err := adaptive.New(adaptive.DefaultConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			p.Adaptive = rt
		}},
	}
	kinds := []struct {
		name string
		run  func(base routing.Params) []adaptive.Cell
	}{
		{"link", func(base routing.Params) []adaptive.Cell {
			return adaptive.Sweep(base, adaptive.DefaultConfig(4), reliable.DefaultConfig(4), modes, []float64{0, 0.05}, 0)
		}},
		{"outage", func(base routing.Params) []adaptive.Cell {
			return adaptive.Sweep(base, adaptive.DefaultConfig(4), reliable.DefaultConfig(4), modes, []float64{0, 0.05}, 20)
		}},
		{"module-kill", func(base routing.Params) []adaptive.Cell {
			return adaptive.ModuleKillSweep(base, adaptive.DefaultConfig(4), reliable.DefaultConfig(4), modes, schemes, []int{0, 1})
		}},
	}
	for _, hook := range hooks {
		for _, kind := range kinds {
			t.Run(hook.name+"/"+kind.name, func(t *testing.T) {
				base := routing.Params{N: 4, Lambda: 0.1, Cycles: 100, Seed: 1}
				hook.set(&base)
				pts := kind.run(base)
				if len(pts) == 0 {
					t.Fatal("sweep produced no cells")
				}
				for _, pt := range pts {
					if pt.Err == nil {
						t.Fatalf("%s cell accepted base params with a preloaded %s hook", pt.Mode, hook.name)
					}
					if !strings.Contains(pt.Err.Error(), "mode "+pt.Mode+" ") {
						t.Errorf("error %q does not name the cell", pt.Err)
					}
					if pt.Result != nil {
						t.Errorf("%s cell ran despite the preloaded hook", pt.Mode)
					}
				}
			})
		}
	}
}
