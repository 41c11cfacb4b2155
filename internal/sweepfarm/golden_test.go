package sweepfarm

import (
	"flag"
	"path/filepath"
	"testing"

	"bfvlsi/internal/routing"
	"bfvlsi/internal/wire/wiretest"
)

var updateGolden = flag.Bool("update", false, "write the golden frames of new format versions")

// samplePoint is a journal record whose counters are all non-zero and
// pairwise distinct, so a dropped or swapped field changes its frame.
func samplePoint() Point {
	return Point{Index: 47, Result: &routing.Result{
		Nodes: 160, Injected: 140, Delivered: 120,
		Throughput: 0.02, AvgLatency: 9.5, AvgHops: 5.25,
		MaxQueue: 7, Backlog: 11, BoundaryCrossingsPerCycle: 0.75,
		InjectionDrops: 13, Stalls: 17, Dropped: 19, Unreachable: 18,
		Misroutes: 23, Detours: 29, Reroutes: 31,
		UnreachableDead: 8, UnreachableCut: 6, UnreachableDetected: 4,
		Retransmitted: 37, DuplicatesDropped: 41, GaveUp: 43,
		TotalInjected: 177, TotalDelivered: 161,
	}}
}

// TestGoldenSweepPoint pins the TypeSweepPoint journal record against
// testdata/golden/sweepPoint.v<N>.bin, N being the frame's version byte,
// and requires the committed record to decode back to the sample:
// journals written by old binaries stay readable. -update only writes
// missing frames, so a layout change under an unchanged
// wire.VersionSweepPoint fails; bump the constant, then
// `go test ./internal/sweepfarm -run TestGoldenSweepPoint -update`.
func TestGoldenSweepPoint(t *testing.T) {
	got, err := marshalPoint(samplePoint())
	if err != nil {
		t.Fatal(err)
	}
	want := wiretest.Frame(t, filepath.Join("testdata", "golden"), "sweepPoint", got, *updateGolden)
	p, err := unmarshalPoint(want)
	if err != nil {
		t.Fatalf("committed record no longer decodes: %v", err)
	}
	if d := wiretest.Diff(p, samplePoint()); d != "" {
		t.Errorf("committed record decodes to a different point at %s", d)
	}
}

// TestSamplePointCoverage requires samplePoint to set every field of
// Point and routing.Result, with same-typed siblings distinct.
func TestSamplePointCoverage(t *testing.T) {
	var c wiretest.Coverage
	c.Add(samplePoint())
	c.Check(t, nil)
}
