package snapshot

import (
	"testing"

	"bfvlsi/internal/wire"
)

// whatifBase is the farm-whatif sweep's base run: n=8 with 4-slot
// buffers, the reliable transport and the adaptive router, warmed up to
// the fork at cycle 200 and continued for 100 cycles.
func whatifBase() Spec {
	return Spec{
		Route: wire.RouteSpec{N: 8, Lambda: 0.1, Warmup: 200, Cycles: 100, Seed: 1, BufferLimit: 4},
		Reliable: &ReliableSpec{
			Timeout: 32, MaxRetries: 5, Jitter: 3, Seed: 2, MeasureFrom: 200,
		},
		Adaptive: &AdaptiveSpec{Seed: 3},
	}
}

// checkpointSink keeps the captured checkpoints live.
var checkpointSink *Checkpoint

// BenchmarkWhatifPoint prices one what-if point of a farm sweep layer by
// layer: capturing the warm checkpoint at the fork, forking it under a
// link-fault plan, finishing the forked continuation, and the whole
// point as a worker serves it (decode the checkpoint frame, fork,
// finish).
func BenchmarkWhatifPoint(b *testing.B) {
	spec := whatifBase()
	run, err := Start(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := run.StepTo(spec.Route.Warmup); err != nil {
		b.Fatal(err)
	}
	ck := run.Checkpoint()
	frame, err := ck.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	fault := &wire.FaultSpec{N: spec.Route.N, LinkRate: 0.01, Seed: 4}
	finish := func(b *testing.B, ck *Checkpoint) {
		r, err := ck.Fork(fault, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checkpointSink = run.Checkpoint()
		}
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ck.Fork(fault, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("finish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := ck.Fork(fault, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := r.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var c Checkpoint
			if err := c.UnmarshalBinary(frame); err != nil {
				b.Fatal(err)
			}
			finish(b, &c)
		}
	})
}
