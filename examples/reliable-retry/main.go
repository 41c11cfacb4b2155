// reliable-retry: the end-to-end reliability layer in action. A wrapped
// B_6 takes rolling link outages (transient faults with repair) while an
// ARQ transport - per-flow sequence numbers, timeout/backoff
// retransmission, duplicate suppression - recovers the payloads the
// naive drop policy loses. The example shows the copy-conservation
// identity on a single run, then sweeps outage severity to compare all
// four recovery modes, and finally prices recovery under permanent
// module kills across the paper's packagings.
package main

import (
	"fmt"
	"log"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

func main() {
	const n = 6
	base := routing.Params{
		N: n, Lambda: 0.1, Warmup: 200, Cycles: 800, Seed: 11,
		Policy: routing.DropDead,
	}

	// One run under rolling outages, transport attached.
	plan := faults.MustPlan(n)
	horizon := base.Warmup + base.Cycles
	if err := plan.AddRandomTransientLinkFaults(400, horizon, 60, 13); err != nil {
		log.Fatal(err)
	}
	tr := reliable.MustNew(reliable.Config{Timeout: 30, MaxRetries: 4, Jitter: 5, Seed: 3})
	tr.MeasureFrom = base.Warmup
	p := base
	p.Faults = plan
	p.TTL = faults.DefaultTTL(n)
	p.Reliable = tr
	r, err := routing.Simulate(p)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		log.Fatal(err)
	}
	s := tr.Stats()
	fmt.Printf("B_%d under rolling outages, ARQ transport attached:\n", n)
	fmt.Printf("  copies:   %d injected + %d retransmitted = %d delivered + %d duplicates + %d dropped + %d gave up + %d backlog\n",
		r.TotalInjected, r.Retransmitted, r.TotalDelivered, r.DuplicatesDropped,
		r.Dropped, r.GaveUp, r.Backlog+r.Unreachable)
	fmt.Printf("  payloads: %d registered = %d accepted + %d abandoned + %d pending\n",
		s.Registered, s.Accepted, s.Abandoned, s.Pending)
	fmt.Printf("  delivery: goodput %.4f pkts/node/cycle, p99 latency %.0f cycles\n\n",
		r.Throughput, tr.LatencyPercentile(0.99))

	// Graceful degradation: all four recovery modes vs outage severity.
	cfg := reliable.Config{Timeout: 30, MaxRetries: 4, Jitter: 5, Seed: 3}
	rates := []float64{0, 0.05, 0.1, 0.2}
	fmt.Printf("goodput vs fraction of links in outage (60-cycle repairs):\n")
	fmt.Printf("  %-14s", "mode")
	for _, rate := range rates {
		fmt.Printf("  %6.0f%%", 100*rate)
	}
	fmt.Println()
	modes := adaptive.ReliableModes()
	pts := adaptive.Sweep(base, adaptive.Config{}, cfg, modes, rates, 60)
	for mi, m := range modes {
		fmt.Printf("  %-14s", m.Name)
		for ri := range rates {
			pt := pts[mi*len(rates)+ri]
			if pt.Err != nil {
				log.Fatal(pt.Err)
			}
			fmt.Printf("  %6.4f", pt.Goodput)
		}
		fmt.Println()
	}

	// Packaging comparison with recovery in the loop: the nucleus modules
	// are small failure domains, so the same kill count hurts less.
	schemes, err := faults.StandardSchemes(n)
	if err != nil {
		log.Fatal(err)
	}
	retx := []adaptive.Mode{{Name: "misroute+retx", Policy: routing.Misroute, Transport: adaptive.Retransmit}}
	kills := []int{0, 1, 2, 4}
	fmt.Printf("\nmisroute+retx goodput vs modules killed, by packaging scheme:\n")
	fmt.Printf("  %-10s", "scheme")
	for _, k := range kills {
		fmt.Printf("  %6d", k)
	}
	fmt.Println()
	kp := adaptive.ModuleKillSweep(base, adaptive.Config{}, cfg, retx, schemes, kills)
	for si, sc := range schemes {
		fmt.Printf("  %-10s", sc.Name)
		for ki := range kills {
			pt := kp[si*len(kills)+ki]
			if pt.Err != nil {
				log.Fatal(pt.Err)
			}
			fmt.Printf("  %6.4f", pt.Goodput)
		}
		fmt.Println()
	}
}
