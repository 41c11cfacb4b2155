package faults_test

import (
	"testing"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

// plain is the degradation sweep's single mode: the base policy, no
// transport.
var plain = []adaptive.Mode{{Name: "misroute", Policy: routing.Misroute}}

// The zero-rate level of a sweep is the fault-free baseline, bit for bit,
// and higher fault rates degrade throughput without losing packets.
func TestSweepZeroRateMatchesBaseline(t *testing.T) {
	base := routing.Params{N: 4, Lambda: 0.1, Warmup: 50, Cycles: 300, Seed: 21}
	baseline, err := routing.Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	pts := adaptive.Sweep(base, adaptive.Config{}, reliable.Config{}, plain, []float64{0, 0.08}, 0)
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("rate %v: %v", pt.Rate, pt.Err)
		}
	}
	if pts[0].DeadLinks != 0 {
		t.Errorf("zero rate killed %d links", pts[0].DeadLinks)
	}
	if *pts[0].Result != *baseline {
		t.Errorf("zero-rate sweep point diverged from baseline:\n%+v\nvs\n%+v", pts[0].Result, baseline)
	}
	if pts[1].DeadLinks == 0 {
		t.Fatal("8% fault rate killed no links")
	}
	if pts[1].Result.Throughput >= pts[0].Result.Throughput {
		t.Errorf("throughput did not degrade: %v at rate 0, %v at rate %v",
			pts[0].Result.Throughput, pts[1].Result.Throughput, pts[1].Rate)
	}
}

func TestStandardSchemes(t *testing.T) {
	n := 6
	schemes, err := faults.StandardSchemes(n)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"row", "nucleus", "naive"}
	if len(schemes) != len(names) {
		t.Fatalf("got %d schemes, want %d", len(schemes), len(names))
	}
	byName := map[string]faults.Scheme{}
	for i, sc := range schemes {
		if sc.Name != names[i] {
			t.Errorf("scheme %d named %q, want %q", i, sc.Name, names[i])
		}
		byName[sc.Name] = sc
		if len(sc.ModuleOf) != n<<uint(n) {
			t.Errorf("%s: ModuleOf has %d entries, want %d", sc.Name, len(sc.ModuleOf), n<<uint(n))
		}
		// Dense ids: every module in [0, NumModules) owns a node.
		seen := make([]bool, sc.NumModules)
		for node, m := range sc.ModuleOf {
			if m < 0 || m >= sc.NumModules {
				t.Fatalf("%s: node %d in module %d outside [0,%d)", sc.Name, node, m, sc.NumModules)
			}
			seen[m] = true
		}
		for m, ok := range seen {
			if !ok {
				t.Errorf("%s: module %d owns no wrapped nodes", sc.Name, m)
			}
		}
	}
	if byName["nucleus"].NumModules <= byName["row"].NumModules {
		t.Errorf("nucleus modules (%d) should outnumber row modules (%d)",
			byName["nucleus"].NumModules, byName["row"].NumModules)
	}
}

// Killing modules degrades throughput under every scheme, the zero-kill
// cell reproduces the fault-free baseline exactly, and the nucleus
// packaging loses fewer nodes per killed module than the row packaging.
func TestModuleKillSweep(t *testing.T) {
	// n = 5 uses spec (2,2,1), whose last nucleus segment holds only
	// stage n and must have been densified away by PartitionScheme.
	base := routing.Params{N: 5, Lambda: 0.1, Warmup: 40, Cycles: 250, Seed: 3}
	baseline, err := routing.Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := faults.StandardSchemes(base.N)
	if err != nil {
		t.Fatal(err)
	}
	kills := []int{0, 2}
	pts := adaptive.ModuleKillSweep(base, adaptive.Config{}, reliable.Config{}, plain, schemes, kills)
	if len(pts) != len(schemes)*len(kills) {
		t.Fatalf("got %d points, want %d", len(pts), len(schemes)*len(kills))
	}
	byCell := map[string]map[int]adaptive.Cell{}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s k=%d: %v", pt.Scheme, pt.Killed, pt.Err)
		}
		if byCell[pt.Scheme] == nil {
			byCell[pt.Scheme] = map[int]adaptive.Cell{}
		}
		byCell[pt.Scheme][pt.Killed] = pt
	}
	for _, sc := range schemes {
		zero, hit := byCell[sc.Name][0], byCell[sc.Name][2]
		if *zero.Result != *baseline {
			t.Errorf("%s k=0 diverged from fault-free baseline", sc.Name)
		}
		if hit.DeadNodes == 0 {
			t.Errorf("%s k=2 killed no nodes", sc.Name)
		}
		if hit.Result.Throughput >= zero.Result.Throughput {
			t.Errorf("%s: throughput did not degrade: %v -> %v",
				sc.Name, zero.Result.Throughput, hit.Result.Throughput)
		}
	}
	// Theorem 2.1 failure-domain story: nucleus modules are smaller, so
	// the same number of killed modules removes less of the machine.
	if nuc, row := byCell["nucleus"][2], byCell["row"][2]; nuc.DeadNodes >= row.DeadNodes {
		t.Errorf("nucleus kill removed %d nodes, row kill %d - nucleus modules should be smaller",
			nuc.DeadNodes, row.DeadNodes)
	}

	bad := adaptive.ModuleKillSweep(base, adaptive.Config{}, reliable.Config{}, plain, schemes[:1], []int{-1})
	if len(bad) != 1 || bad[0].Err == nil {
		t.Error("negative kill count accepted")
	}
}
