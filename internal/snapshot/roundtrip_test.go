package snapshot

import (
	"testing"

	"bfvlsi/internal/routing"
	"bfvlsi/internal/wire"
	"bfvlsi/internal/wire/wiretest"
)

// giveUpStacks are two faulted VC stacks whose transport gives up: a
// planned outage and a node death, and a transport with one retry under
// a capped backoff, so their checkpoints carry abandoned payloads and a
// GaveUp count, which testSpecs never reach. The first drops packets at
// dead links (DropDead); the second routes around them with the
// adaptive router, whose condemnation of the repaired link goes stale
// and re-closes without a probe.
func giveUpStacks() []struct {
	Name string
	Spec Spec
} {
	route := wire.RouteSpec{
		N: 3, Lambda: 0.30, Warmup: 30, Cycles: 90, Seed: 13,
		BufferLimit: 4, TTL: 24, Policy: routing.DropDead,
		Fault: &wire.FaultSpec{
			N: 3, LinkRate: 0.06, Seed: 4,
			Events: []wire.FaultEvent{
				{Node: 5, Out: 1, Start: 10, RepairAfter: 30},
				{Node: 9, Out: -1, Start: 20},
			},
		},
	}
	rel := &ReliableSpec{Timeout: 6, MaxRetries: 1, Jitter: 2, MaxTimeout: 8, Seed: 7, MeasureFrom: 30}
	adaptiveRoute := route
	adaptiveRoute.Policy = routing.Misroute
	return []struct {
		Name string
		Spec Spec
	}{
		{"vc-faults-reliable-giveup", Spec{Route: route, Reliable: rel}},
		{"vc-faults-reliable-adaptive-giveup", Spec{Route: adaptiveRoute, Reliable: rel,
			Adaptive: &AdaptiveSpec{Threshold: 2, ProbeInterval: 7, MaxDetours: 2, Epoch: 10, Seed: 3}}},
	}
}

// checkpointExempt lists the checkpoint fields no capture sets, each
// with the reason it must stay zero.
var checkpointExempt = map[string]string{
	"routing.Result.Throughput":                "derived by Finish; checkCounters rejects it in a checkpoint",
	"routing.Result.AvgLatency":                "derived by Finish; checkCounters rejects it in a checkpoint",
	"routing.Result.AvgHops":                   "derived by Finish; checkCounters rejects it in a checkpoint",
	"routing.Result.MaxQueue":                  "derived by Finish; checkCounters rejects it in a checkpoint",
	"routing.Result.Backlog":                   "derived by Finish; checkCounters rejects it in a checkpoint",
	"routing.Result.BoundaryCrossingsPerCycle": "derived by Finish; checkCounters rejects it in a checkpoint",
	"adaptive.Stats.OpenAtEnd":                 "derived when Stats is read; RestoreState rejects it",
	"routing.SimState.Crossings":               "counted only under Params.ModuleOf, which no Spec sets; RestoreSim rejects it without one",
}

// TestCheckpointRoundTrip captures every stack at several cycles and
// requires capture → MarshalBinary → UnmarshalBinary to give the same
// checkpoint, and Restore → Checkpoint to give it again, so a state
// field that capture fills but encode, decode or restore drops fails
// here. Over all captures, every checkpoint field — the Spec,
// routing.SimState, reliable.State and adaptive.State alike — must be
// non-zero somewhere, and same-typed sibling fields must differ
// somewhere, unless checkpointExempt says why not.
func TestCheckpointRoundTrip(t *testing.T) {
	var cov wiretest.Coverage
	for _, tc := range append(testSpecs(), giveUpStacks()...) {
		run, err := Start(tc.Spec, nil)
		if err != nil {
			t.Fatalf("%s: Start: %v", tc.Name, err)
		}
		for _, cycle := range []int{20, 45, 80} {
			if err := run.StepTo(cycle); err != nil {
				t.Fatalf("%s: StepTo(%d): %v", tc.Name, cycle, err)
			}
			ck := run.Checkpoint()
			cov.Add(ck)
			enc, err := ck.MarshalBinary()
			if err != nil {
				t.Fatalf("%s@%d: MarshalBinary: %v", tc.Name, cycle, err)
			}
			var dec Checkpoint
			if err := dec.UnmarshalBinary(enc); err != nil {
				t.Fatalf("%s@%d: UnmarshalBinary: %v", tc.Name, cycle, err)
			}
			if d := wiretest.Diff(ck, &dec); d != "" {
				t.Errorf("%s@%d: decoded checkpoint differs at %s", tc.Name, cycle, d)
			}
			restored, err := dec.Restore(nil)
			if err != nil {
				t.Fatalf("%s@%d: Restore: %v", tc.Name, cycle, err)
			}
			if d := wiretest.Diff(ck, restored.Checkpoint()); d != "" {
				t.Errorf("%s@%d: checkpoint of the restored run differs at %s", tc.Name, cycle, d)
			}
		}
	}
	cov.Check(t, checkpointExempt)
}
