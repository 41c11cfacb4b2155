package snapshot

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"bfvlsi/internal/routing"
	"bfvlsi/internal/wire"
)

// testFault is a small but busy fault plan for n=3: background link
// deaths plus transient faults that repair mid-run.
func testFault() *wire.FaultSpec {
	return &wire.FaultSpec{
		N: 3, LinkRate: 0.04, NodeRate: 0.02, Seed: 3,
		TransientCount: 3, TransientHorizon: 80, TransientRepair: 12,
	}
}

// testSpecs returns the five simulator-stack configurations the
// restore-determinism contract is pinned on: plain, VC, faulted plain,
// and the faulted VC stack with reliable transport alone and with the
// adaptive router on top.
func testSpecs() []struct {
	Name string
	Spec Spec
} {
	route := wire.RouteSpec{N: 3, Lambda: 0.30, Warmup: 30, Cycles: 90, Seed: 11}
	vc := route
	vc.BufferLimit = 4
	vc.Pattern = routing.Shuffle
	plainFault := route
	plainFault.Fault = testFault()
	vcRel := vc
	vcRel.Fault = testFault()
	vcRel.TTL = 48
	rel := &ReliableSpec{Timeout: 12, MaxRetries: 4, Jitter: 3, Seed: 5, MeasureFrom: 30}
	vcAd := vcRel
	full := []struct {
		Name string
		Spec Spec
	}{
		{"plain", Spec{Route: route}},
		{"vc", Spec{Route: vc}},
		{"plain-faults", Spec{Route: plainFault}},
		{"vc-faults-reliable", Spec{Route: vcRel, Reliable: rel}},
		{"vc-faults-reliable-adaptive", Spec{Route: vcAd, Reliable: rel,
			Adaptive: &AdaptiveSpec{Threshold: 2, ProbeInterval: 12, MaxDetours: 3, Epoch: 16, Seed: 9}}},
	}
	return full
}

// finishRun finishes r and collects its hook stats alongside, so full
// and restored runs can be compared wholesale.
type runOutcome struct {
	Res      *routing.Result
	Reliable interface{}
	Adaptive interface{}
}

func finishRun(t *testing.T, r *Run) runOutcome {
	t.Helper()
	res, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	out := runOutcome{Res: res}
	if r.Transport != nil {
		out.Reliable = r.Transport.Stats()
	}
	if r.Router != nil {
		out.Adaptive = r.Router.Stats()
	}
	return out
}

// TestCheckpointRestoreGolden is the tentpole contract: a run cut at an
// arbitrary cycle boundary, checkpointed, serialized, decoded, and
// restored must continue packet-for-packet identical to the
// uninterrupted run - same final counters, same hook stats, and a
// continuation trace that concatenates byte-identically with the
// prefix trace.
func TestCheckpointRestoreGolden(t *testing.T) {
	for _, tc := range append(testSpecs(), giveUpStacks()...) {
		t.Run(tc.Name, func(t *testing.T) {
			var fullTrace bytes.Buffer
			fr, err := Start(tc.Spec, &fullTrace)
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			want := finishRun(t, fr)
			total := tc.Spec.Route.Warmup + tc.Spec.Route.Cycles

			for _, cut := range []int{0, 1, total / 3, 2 * total / 3, total - 1, total} {
				var prefix bytes.Buffer
				r, err := Start(tc.Spec, &prefix)
				if err != nil {
					t.Fatalf("cut %d: Start: %v", cut, err)
				}
				if err := r.StepTo(cut); err != nil {
					t.Fatalf("cut %d: StepTo: %v", cut, err)
				}
				ck := r.Checkpoint()

				enc, err := ck.MarshalBinary()
				if err != nil {
					t.Fatalf("cut %d: MarshalBinary: %v", cut, err)
				}
				var decoded Checkpoint
				if err := decoded.UnmarshalBinary(enc); err != nil {
					t.Fatalf("cut %d: UnmarshalBinary: %v", cut, err)
				}
				re, err := decoded.MarshalBinary()
				if err != nil {
					t.Fatalf("cut %d: re-marshal: %v", cut, err)
				}
				if !bytes.Equal(enc, re) {
					t.Fatalf("cut %d: re-encode is not byte-identical (%d vs %d bytes)", cut, len(enc), len(re))
				}
				k1, err := ck.Key()
				if err != nil {
					t.Fatalf("cut %d: Key: %v", cut, err)
				}
				k2, err := decoded.Key()
				if err != nil || k1 != k2 {
					t.Fatalf("cut %d: content address changed across decode (%x vs %x, err %v)", cut, k1, k2, err)
				}

				var cont bytes.Buffer
				r2, err := decoded.Restore(&cont)
				if err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				got := finishRun(t, r2)
				if !reflect.DeepEqual(want.Res, got.Res) {
					t.Fatalf("cut %d: restored result diverged:\nfull:     %+v\nrestored: %+v", cut, want.Res, got.Res)
				}
				if !reflect.DeepEqual(want.Reliable, got.Reliable) {
					t.Fatalf("cut %d: restored transport stats diverged:\nfull:     %+v\nrestored: %+v", cut, want.Reliable, got.Reliable)
				}
				if !reflect.DeepEqual(want.Adaptive, got.Adaptive) {
					t.Fatalf("cut %d: restored router stats diverged:\nfull:     %+v\nrestored: %+v", cut, want.Adaptive, got.Adaptive)
				}
				if joined := prefix.String() + cont.String(); joined != fullTrace.String() {
					t.Fatalf("cut %d: prefix+continuation trace is not byte-identical to the uninterrupted trace", cut)
				}
			}
		})
	}
}

// TestSpecRoundTrip pins the TypeSimSpec frame: marshal/unmarshal/
// re-marshal byte identity for every stack configuration.
func TestSpecRoundTrip(t *testing.T) {
	for _, tc := range testSpecs() {
		enc, err := tc.Spec.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", tc.Name, err)
		}
		var out Spec
		if err := out.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", tc.Name, err)
		}
		if !reflect.DeepEqual(tc.Spec, out) {
			t.Fatalf("%s: decoded spec differs:\nin:  %+v\nout: %+v", tc.Name, tc.Spec, out)
		}
		re, err := out.MarshalBinary()
		if err != nil || !bytes.Equal(enc, re) {
			t.Fatalf("%s: re-encode not byte-identical (err %v)", tc.Name, err)
		}
	}
}

// TestForkWhatIf pins the what-if primitive: forking one warmed-up
// checkpoint into a fault future is deterministic, conserves packets,
// actually diverges from the fault-free continuation, and forking the
// fault away restores the base behaviour.
func TestForkWhatIf(t *testing.T) {
	spec := testSpecs()[1].Spec // vc, fault-free
	r, err := Start(spec, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.StepTo(spec.Route.Warmup); err != nil {
		t.Fatalf("StepTo: %v", err)
	}
	ck := r.Checkpoint()

	fault := testFault()
	f1, err := ck.Fork(fault, nil)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if got, want := f1.Spec.EffectiveTTL(), spec.Route.TTL; got == want {
		t.Fatalf("forked run kept TTL %d; a faulted fork must pick up the default TTL", got)
	}
	res1, err := f1.Finish()
	if err != nil {
		t.Fatalf("forked Finish: %v", err)
	}
	f2, err := ck.Fork(fault, nil)
	if err != nil {
		t.Fatalf("second Fork: %v", err)
	}
	res2, err := f2.Finish()
	if err != nil {
		t.Fatalf("second forked Finish: %v", err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("two forks of the same fault future diverged:\n%+v\n%+v", res1, res2)
	}

	base, err := ck.Restore(nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resBase, err := base.Finish()
	if err != nil {
		t.Fatalf("base Finish: %v", err)
	}
	if reflect.DeepEqual(res1, resBase) {
		t.Fatalf("faulted fork is identical to the fault-free continuation: %+v", res1)
	}

	// Fork(nil) on a faulted checkpoint strips the plan again.
	faulted := spec
	faulted.Route.Fault = testFault()
	rf, err := Start(faulted, nil)
	if err != nil {
		t.Fatalf("faulted Start: %v", err)
	}
	if err := rf.StepTo(10); err != nil {
		t.Fatalf("faulted StepTo: %v", err)
	}
	clean, err := rf.Checkpoint().Fork(nil, nil)
	if err != nil {
		t.Fatalf("Fork(nil): %v", err)
	}
	if clean.Spec.Route.Fault != nil {
		t.Fatalf("Fork(nil) kept the fault plan")
	}
	if _, err := clean.Finish(); err != nil {
		t.Fatalf("fault-stripped Finish: %v", err)
	}
}

// TestForkConcurrent forks one checkpoint from many goroutines at once:
// the checkpoint is immutable, so concurrent forks must be race-free
// and identical (run under -race).
func TestForkConcurrent(t *testing.T) {
	spec := testSpecs()[3].Spec // vc-faults-reliable
	r, err := Start(spec, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.StepTo(40); err != nil {
		t.Fatalf("StepTo: %v", err)
	}
	ck := r.Checkpoint()
	fault := &wire.FaultSpec{N: 3, LinkRate: 0.08, Seed: 21}

	const workers = 8
	results := make([]*routing.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := ck.Fork(fault, nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = run.Finish()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker %d produced a different result:\n%+v\n%+v", i, results[0], results[i])
		}
	}
}

// TestCheckpointRejects covers the validation walls: inconsistent
// checkpoints must fail to marshal or to restore, never silently
// produce a wrong run.
func TestCheckpointRejects(t *testing.T) {
	spec := testSpecs()[4].Spec // full stack
	r, err := Start(spec, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.StepTo(50); err != nil {
		t.Fatalf("StepTo: %v", err)
	}

	fresh := func() *Checkpoint { return r.Checkpoint() }

	if _, err := fresh().MarshalBinary(); err != nil {
		t.Fatalf("pristine checkpoint fails to marshal: %v", err)
	}
	if _, err := fresh().Restore(nil); err != nil {
		t.Fatalf("pristine checkpoint fails to restore: %v", err)
	}

	marshalCases := []struct {
		name string
		mut  func(c *Checkpoint)
	}{
		{"reliable state dropped", func(c *Checkpoint) { c.Reliable = nil }},
		{"adaptive state dropped", func(c *Checkpoint) { c.Adaptive = nil }},
		{"derived counter set", func(c *Checkpoint) { c.Sim.Counters.Backlog = 1 }},
		{"negative counter", func(c *Checkpoint) { c.Sim.Counters.Injected = -1 }},
		{"registered off by one", func(c *Checkpoint) { c.Reliable.Registered++ }},
		{"reliable nodes mismatch", func(c *Checkpoint) { c.Reliable.Nodes++ }},
		{"adaptive geometry mismatch", func(c *Checkpoint) { c.Adaptive.N++ }},
		{"adaptive consec truncated", func(c *Checkpoint) { c.Adaptive.Consec = c.Adaptive.Consec[:3] }},
	}
	for _, tc := range marshalCases {
		c := fresh()
		tc.mut(c)
		if _, err := c.MarshalBinary(); err == nil {
			t.Errorf("%s: MarshalBinary accepted a corrupt checkpoint", tc.name)
		}
	}

	restoreCases := []struct {
		name string
		mut  func(c *Checkpoint)
	}{
		{"cycle past end", func(c *Checkpoint) { c.Sim.Cycle = spec.Route.Warmup + spec.Route.Cycles + 1 }},
		{"implausible sim draws", func(c *Checkpoint) { c.Sim.Draws = 1 << 60 }},
		{"implausible transport draws", func(c *Checkpoint) { c.Reliable.Draws = 1 << 60 }},
		{"counter drift breaks conservation", func(c *Checkpoint) { c.Sim.Counters.Delivered++; c.Sim.Counters.TotalDelivered++ }},
		{"crossings without modules", func(c *Checkpoint) { c.Sim.Crossings = 1000 }},
		{"pending attempts zeroed", func(c *Checkpoint) {
			if len(c.Reliable.Pending) == 0 {
				c.Sim.Cycle = -1 // fall back to another invalid state
				return
			}
			c.Reliable.Pending[0].Attempts = 0
		}},
	}
	for _, tc := range restoreCases {
		c := fresh()
		tc.mut(c)
		if _, err := c.Restore(nil); err == nil {
			t.Errorf("%s: Restore accepted a corrupt checkpoint", tc.name)
		}
	}
}
