package routing_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/wire"
)

// shardRun runs p under pattern to completion on the given forced
// number of shards and returns its Result and trace bytes. It fails the
// test if the run does not get that many shards.
func shardRun(t testing.TB, p routing.Params, pattern routing.Pattern, shards int) (routing.Result, []byte) {
	t.Helper()
	routing.ForceShards(t, shards)
	var trace bytes.Buffer
	p.Trace = &trace
	s, err := routing.NewSim(p, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if got := routing.Shards(s); got != shards {
		t.Fatalf("run has %d shards, want %d", got, shards)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return *res, trace.Bytes()
}

// scatterModules spreads the nodes over 13 modules by a multiplicative
// hash, so links of every column cross module boundaries.
func scatterModules(n int) []int {
	m := make([]int, n<<n)
	for node := range m {
		m[node] = node * 7919 % 13
	}
	return m
}

// TestShardIdentity runs sim-large-sized configurations (n=10) serially
// and on two shards and requires the same Result and trace bytes, in
// both buffer modes, bare and with faults, a TTL and module crossings.
// It is short enough to run under -short, so CI's race run covers the
// worker team.
func TestShardIdentity(t *testing.T) {
	const n = 10
	for _, buffers := range []int{0, 4} {
		for _, hooked := range []bool{false, true} {
			name := fmt.Sprintf("buffers%d", buffers)
			if hooked {
				name += "/faults-ttl-moduleof"
			}
			t.Run(name, func(t *testing.T) {
				build := func() routing.Params {
					p := routing.Params{N: n, Lambda: 0.1, Warmup: 10, Cycles: 30, Seed: 5, BufferLimit: buffers}
					if hooked {
						fp := faults.MustPlan(n)
						mustOK(t, errOnly(fp.AddRandomLinkFaults(0.02, 7)))
						mustOK(t, fp.AddRandomTransientLinkFaults(40, 40, 10, 8))
						mustOK(t, fp.AddNodeFault(3*(1<<n)+600, 5, 20))
						p.Faults, p.TTL, p.ModuleOf = fp, 12, scatterModules(n)
					}
					return p
				}
				res1, trace1 := shardRun(t, build(), routing.Uniform, 1)
				res2, trace2 := shardRun(t, build(), routing.Uniform, 2)
				if res1 != res2 {
					t.Errorf("results differ:\n1 shard  %+v\n2 shards %+v", res1, res2)
				}
				if !bytes.Equal(trace1, trace2) {
					t.Errorf("trace bytes differ between 1 and 2 shards")
				}
			})
		}
	}
}

func errOnly(_ int, err error) error { return err }

// TestShardIdentityInjectionDrops runs the first digest-matrix row that
// may shard and whose full entry queues refuse injections on 2 and 4
// forced shards. Each shard counts its refusals as it places its
// injections, and the folded Result and the trace must be the one-shard
// run's.
func TestShardIdentityInjectionDrops(t *testing.T) {
	for _, r := range engineRows(t) {
		p, _ := r.build()
		if p.Reliable != nil || p.Adaptive != nil {
			continue
		}
		res1, trace1 := shardRun(t, p, r.pattern, 1)
		if res1.InjectionDrops == 0 {
			continue
		}
		t.Logf("%s: %d injections refused", r.name, res1.InjectionDrops)
		for _, shards := range []int{2, 4} {
			p, _ := r.build()
			res, trace := shardRun(t, p, r.pattern, shards)
			if res != res1 {
				t.Errorf("%s: %d shards give %+v, one shard %+v", r.name, shards, res, res1)
			}
			if !bytes.Equal(trace, trace1) {
				t.Errorf("%s: trace bytes differ between 1 and %d shards", r.name, shards)
			}
		}
		return
	}
	t.Fatal("no shardable digest-matrix row refuses an injection")
}

// TestShardCheckpointCrossRestore takes a checkpoint mid-run on one
// shard count, round-trips it through its wire frame, restores it on
// the other and runs on: the result and the concatenated trace must
// match the uninterrupted serial run, serial to sharded and back.
func TestShardCheckpointCrossRestore(t *testing.T) {
	for _, buffers := range []int{0, 4} {
		spec := snapshot.Spec{Route: wire.RouteSpec{
			N: 6, Lambda: 0.2, Warmup: 20, Cycles: 80, Seed: 11, BufferLimit: buffers, TTL: 24,
			Pattern: routing.Uniform, Fault: &wire.FaultSpec{N: 6, LinkRate: 0.03, Seed: 4},
		}}
		routing.ForceShards(t, 1)
		var full bytes.Buffer
		run, err := snapshot.Start(spec, &full)
		mustOK(t, err)
		want, err := run.Finish()
		mustOK(t, err)
		for _, c := range []struct{ before, after int }{{2, 1}, {1, 2}, {4, 2}} {
			routing.ForceShards(t, c.before)
			var prefix, rest bytes.Buffer
			run, err := snapshot.Start(spec, &prefix)
			mustOK(t, err)
			mustOK(t, run.StepTo(45))
			frame, err := run.Checkpoint().MarshalBinary()
			mustOK(t, err)
			var cp snapshot.Checkpoint
			mustOK(t, cp.UnmarshalBinary(frame))
			routing.ForceShards(t, c.after)
			resumed, err := cp.Restore(&rest)
			mustOK(t, err)
			if got := routing.Shards(resumed.Sim); got != c.after {
				t.Fatalf("restored run has %d shards, want %d", got, c.after)
			}
			got, err := resumed.Finish()
			mustOK(t, err)
			if *got != *want {
				t.Errorf("buffers %d, %d shards then %d: result %+v, serial %+v", buffers, c.before, c.after, *got, *want)
			}
			if prefix.String()+rest.String() != full.String() {
				t.Errorf("buffers %d, %d shards then %d: trace bytes differ from the serial run", buffers, c.before, c.after)
			}
		}
	}
}

// goroutineWriter is a trace sink that records the goroutine count at
// every write (made from inside a run) and fails once ok writes are
// used up, if failing is set.
type goroutineWriter struct {
	ok      int
	failing bool
	peak    int
}

func (w *goroutineWriter) Write(b []byte) (int, error) {
	w.peak = max(w.peak, runtime.NumGoroutine())
	if w.failing {
		if w.ok == 0 {
			return 0, errors.New("trace sink full")
		}
		w.ok--
	}
	return len(b), nil
}

// TestShardWorkersJoined checks that no worker outlives the call that
// started it: after Step, RunTo, Finish and snapshot.Run.StepTo return,
// on success and on error (a trace write failing mid-run, stepping past
// the end), the goroutine count comes back to its baseline. The trace
// sink sees the workers alive inside RunTo, and none inside a single
// Step, which runs every shard on the calling goroutine.
func TestShardWorkersJoined(t *testing.T) {
	routing.ForceShards(t, 4)
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p := routing.Params{N: 5, Lambda: 0.2, Warmup: 2, Cycles: 30, Seed: 1}
	w := &goroutineWriter{}
	p.Trace = w
	s, err := routing.NewSim(p, routing.Uniform)
	mustOK(t, err)
	for i := 0; i < 5; i++ {
		mustOK(t, s.Step())
	}
	settled("Step")
	if w.peak > base {
		t.Errorf("trace saw %d goroutines inside Step, want no workers above baseline %d", w.peak, base)
	}
	mustOK(t, s.RunTo(20))
	settled("RunTo")
	if w.peak < base+3 {
		t.Errorf("trace saw at most %d goroutines inside RunTo, want the 3 workers above baseline %d", w.peak, base)
	}
	_, err = s.Finish()
	mustOK(t, err)
	settled("Finish")
	if err := s.Step(); err == nil {
		t.Error("Step past the end returned no error")
	}
	settled("Step past the end")

	p.Trace = &goroutineWriter{failing: true, ok: 6}
	s, err = routing.NewSim(p, routing.Uniform)
	mustOK(t, err)
	if _, err := s.Finish(); err == nil {
		t.Error("Finish with a failing trace returned no error")
	}
	settled("Finish with a failing trace")

	run, err := snapshot.Start(snapshot.Spec{Route: wire.RouteSpec{
		N: 5, Lambda: 0.2, Warmup: 2, Cycles: 30, Seed: 1, Pattern: routing.Uniform,
	}}, nil)
	mustOK(t, err)
	mustOK(t, run.StepTo(17))
	settled("StepTo")
	if err := run.StepTo(40); err == nil {
		t.Error("StepTo past the end returned no error")
	}
	settled("StepTo past the end")
}

// FuzzShardIdentity requires every forced shard count to reproduce the
// serial engine's Result and trace bytes over random sizes, loads,
// traffic patterns, buffer limits, TTLs and fault plans.
func FuzzShardIdentity(f *testing.F) {
	f.Add(uint8(3), uint16(200), int64(1), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint16(300), int64(7), uint8(2), uint8(12), uint8(5), int64(3), uint8(1), uint8(1))
	f.Add(uint8(0), uint16(900), int64(2), uint8(1), uint8(4), uint8(20), int64(9), uint8(2), uint8(2))
	f.Add(uint8(6), uint16(100), int64(5), uint8(4), uint8(0), uint8(2), int64(1), uint8(1), uint8(3))
	f.Add(uint8(5), uint16(700), int64(3), uint8(1), uint8(0), uint8(0), int64(0), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, nRaw uint8, lamRaw uint16, seed int64, bufRaw, ttlRaw, faultPct uint8, faultSeed int64, bitsRaw, patRaw uint8) {
		n := 1 + int(nRaw%7) // 1..7
		build := func() routing.Params {
			p := routing.Params{
				N: n, Lambda: float64(lamRaw%1001) / 1000, Warmup: 10, Cycles: 50, Seed: seed,
				BufferLimit: int(bufRaw % 5), TTL: int(ttlRaw % 40),
			}
			if pct := faultPct % 30; pct > 0 {
				fp, err := faults.NewPlan(n)
				mustOK(t, err)
				mustOK(t, errOnly(fp.AddRandomLinkFaults(float64(pct)/100, faultSeed)))
				mustOK(t, fp.AddRandomTransientLinkFaults(int(pct), 60, 7, faultSeed+1))
				p.Faults = fp
			}
			return p
		}
		shards := min(2<<(bitsRaw%3), 1<<n) // 2, 4 or 8, at most one row each
		pattern := routing.Pattern(patRaw % 5)
		res1, trace1 := shardRun(t, build(), pattern, 1)
		resK, traceK := shardRun(t, build(), pattern, shards)
		if res1 != resK {
			t.Fatalf("%v: results differ:\n1 shard   %+v\n%d shards %+v", pattern, res1, shards, resK)
		}
		if !bytes.Equal(trace1, traceK) {
			t.Fatalf("trace bytes differ between 1 and %d shards", shards)
		}
	})
}

// budgetWriter is a trace sink that records, at every trace line after
// the header (written before sim is set), whether sim's workers ran that
// cycle, and holds a processor of the shared budget over lines
// [from, to), as a concurrent run would.
type budgetWriter struct {
	bytes.Buffer
	sim      *routing.Sim
	from, to int
	release  func()
	engaged  []bool
}

func (w *budgetWriter) Write(b []byte) (int, error) {
	if w.sim == nil {
		return w.Buffer.Write(b)
	}
	line := len(w.engaged)
	w.engaged = append(w.engaged, routing.Engaged(w.sim))
	switch line {
	case w.from - 1:
		w.release = routing.HoldProcessors(1)
	case w.to - 1:
		w.release()
	}
	return w.Buffer.Write(b)
}

// TestShardBudget checks the default shard rule and the processor
// budget the worker teams share. With two processors an n=9 run cuts
// two shards and its worker runs the phases; while another run holds a
// processor the worker stops, and the caller runs both shards, until
// the processor is free again. The bytes are the serial engine's.
func TestShardBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := routing.Params{N: 9, Lambda: 0.1, Warmup: 2, Cycles: 12, Seed: 3}
	var want routing.Result
	var wantTrace []byte
	t.Run("serial", func(t *testing.T) { want, wantTrace = shardRun(t, p, routing.Uniform, 1) })
	w := &budgetWriter{from: 4, to: 8}
	p.Trace = w
	s, err := routing.NewSim(p, routing.Uniform)
	mustOK(t, err)
	if got := routing.Shards(s); got != 2 {
		t.Fatalf("n=9 run on 2 processors has %d shards, want 2", got)
	}
	w.sim = s
	res, err := s.Finish()
	mustOK(t, err)
	for line, engaged := range w.engaged {
		if held := line >= w.from && line < w.to; engaged == held {
			t.Errorf("trace line %d: worker engaged %v with a processor held %v", line, engaged, held)
		}
	}
	if *res != want {
		t.Errorf("Result differs from the serial run:\n got %+v\nwant %+v", *res, want)
	}
	if !bytes.Equal(w.Bytes(), wantTrace) {
		t.Error("trace differs from the serial run")
	}
}
