// Package sweepfarm runs resumable fault-scenario sweeps on top of
// internal/snapshot: one base run is warmed up to a fork cycle and
// checkpointed once, then a pool of workers forks that single immutable
// checkpoint into every fault scenario of the sweep. Completed points
// are journaled (length-prefixed wire frames, fsynced per record), so a
// farm killed at any moment — including SIGKILL mid-append — resumes by
// re-reading the journal and running only the missing points.
//
// Every point is a deterministic function of (base spec, fork cycle,
// fault scenario): the merged result set of an interrupted-and-resumed
// farm is byte-identical to an uninterrupted one (Report.Encode is the
// canonical serialization), which is what makes the journal a cache
// rather than a log of opinions.
package sweepfarm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bfvlsi/internal/par"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/wire"
)

// maxPoints bounds a sweep; journal indices are validated against it.
const maxPoints = 1 << 16

// Spec describes a sweep farm: the base stack, the cycle at which the
// warmed-up checkpoint is taken, and one fault scenario per point. A
// nil point is the fault-free control (the fork strips the base plan).
type Spec struct {
	Base      snapshot.Spec
	ForkCycle int
	Points    []*wire.FaultSpec
}

// Validate checks the farm spec's invariants.
func (s *Spec) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	total := s.Base.Route.Warmup + s.Base.Route.Cycles
	if s.ForkCycle < 0 || s.ForkCycle > total {
		return fmt.Errorf("sweepfarm: fork cycle %d outside [0,%d]", s.ForkCycle, total)
	}
	if len(s.Points) == 0 {
		return fmt.Errorf("sweepfarm: no sweep points")
	}
	if len(s.Points) > maxPoints {
		return fmt.Errorf("sweepfarm: %d sweep points exceed cap %d", len(s.Points), maxPoints)
	}
	for i, pt := range s.Points {
		if pt == nil {
			continue
		}
		if err := pt.Validate(); err != nil {
			return fmt.Errorf("sweepfarm: point %d: %w", i, err)
		}
		if pt.N != s.Base.Route.N {
			return fmt.Errorf("sweepfarm: point %d is for n=%d, base is n=%d", i, pt.N, s.Base.Route.N)
		}
	}
	return nil
}

// ErrAborted reports a farm stopped by Options.AbortAfter with points
// still missing.
var ErrAborted = errors.New("sweepfarm: aborted")

// Options configure a farm run.
type Options struct {
	// Workers is the fork worker pool size; values below 1 select the
	// default of 4.
	Workers int
	// Journal, if non-empty, is the path of the completed-point journal:
	// read (and its torn tail truncated) before the run, appended to as
	// points finish. Empty disables persistence and resumability.
	Journal string
	// AbortAfter, if positive, hard-aborts the farm once that many new
	// points have been journaled this run: no further points are handed
	// out and in-flight results are discarded unjournaled, simulating a
	// kill at an arbitrary moment. Run then returns ErrAborted. Test
	// hook; zero disables it.
	AbortAfter int
}

// Report is the merged result set of a farm: every completed point,
// sorted by index.
type Report struct {
	Points []Point
	// Resumed counts points replayed from the journal rather than
	// simulated this run.
	Resumed int
}

// Encode returns the report's canonical serialization: the journal
// encoding of the points in index order. Two farms over the same spec
// produce byte-identical encodings regardless of worker scheduling or
// how many times the farm was killed and resumed along the way.
func (r *Report) Encode() ([]byte, error) {
	var out []byte
	for _, p := range r.Points {
		rec, err := marshalPoint(p)
		if err != nil {
			return nil, err
		}
		out = appendUvarint(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out, nil
}

// appendUvarint mirrors binary.AppendUvarint without re-importing it
// here (journal.go owns the codec imports).
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Run executes the farm: loads the journal, warms up and checkpoints
// the base run if any point is missing, forks the checkpoint across the
// worker pool, and returns the merged report. With a journal path the
// run is resumable: killed farms pick up where the journal ends.
func Run(spec Spec, o Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	done := make(map[int]*routing.Result, len(spec.Points))
	var jf *Journal
	if o.Journal != "" {
		j, raw, err := OpenJournal(o.Journal)
		if err != nil {
			return nil, err
		}
		// Duplicate records with identical bytes merge cleanly (a journal
		// fed by hedged deliveries repeats indices); conflicting ones and
		// out-of-range indices are a spec/journal mismatch.
		pts, _, err := MergePoints(raw)
		if err != nil {
			_ = j.Close()
			return nil, err
		}
		for _, p := range pts {
			if p.Index < 0 || p.Index >= len(spec.Points) {
				_ = j.Close()
				return nil, fmt.Errorf("sweepfarm: journal point %d out of range for a %d-point spec", p.Index, len(spec.Points))
			}
			done[p.Index] = p.Result
		}
		jf = j
	}
	resumed := len(done)

	runErr := runMissing(spec, o, done, jf)
	if jf != nil {
		if cerr := jf.Close(); cerr != nil && runErr == nil {
			runErr = cerr
		}
	}
	if runErr != nil && !errors.Is(runErr, ErrAborted) {
		return nil, runErr
	}

	rep := &Report{Points: make([]Point, 0, len(done)), Resumed: resumed}
	for idx, res := range done {
		rep.Points = append(rep.Points, Point{Index: idx, Result: res})
	}
	sort.Slice(rep.Points, func(i, j int) bool { return rep.Points[i].Index < rep.Points[j].Index })
	return rep, runErr
}

// runMissing simulates every point absent from done, journaling and
// recording each as it finishes. It returns ErrAborted when the
// AbortAfter hook fired with points still missing.
func runMissing(spec Spec, o Options, done map[int]*routing.Result, jf *Journal) error {
	missing := make([]int, 0, len(spec.Points))
	for i := range spec.Points {
		if _, ok := done[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	warm, err := WarmCheckpoint(spec)
	if err != nil {
		return err
	}
	workers := o.Workers
	if workers < 1 {
		workers = 4
	}

	// AbortAfter cancels ctx, which stops the hand-out; For then reports
	// ctx.Err() unless a point failed.
	ctx, abort := context.WithCancel(context.Background())
	defer abort()
	var (
		mu        sync.Mutex
		journaled int
	)
	err = par.For(ctx, len(missing), workers, func(_ context.Context, k int) error {
		i := missing[k]
		run, err := warm.Fork(spec.Points[i], nil)
		var res *routing.Result
		if err == nil {
			res, err = run.Finish()
		}
		if err != nil {
			return fmt.Errorf("sweepfarm: point %d: %w", i, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			// Hard-abort semantics: results that finish after the abort
			// are dropped unjournaled, like a killed process.
			return nil
		}
		if jf != nil {
			if err := jf.Append(Point{Index: i, Result: res}); err != nil {
				return err
			}
		}
		done[i] = res
		journaled++
		if o.AbortAfter > 0 && journaled >= o.AbortAfter {
			abort()
		}
		return nil
	})
	if err != nil && err != ctx.Err() {
		return err
	}
	if len(done) < len(spec.Points) {
		return fmt.Errorf("%w after %d points, %d missing", ErrAborted, journaled, len(spec.Points)-len(done))
	}
	return nil
}

// WarmCheckpoint runs the base stack to the fork cycle and captures the
// checkpoint every point forks from. It is the warm-up step shared by
// the in-process farm and the distributed coordinator
// (internal/dispatch), which ships the marshaled checkpoint to workers.
func WarmCheckpoint(spec Spec) (*snapshot.Checkpoint, error) {
	run, err := snapshot.Start(spec.Base, nil)
	if err != nil {
		return nil, err
	}
	if err := run.StepTo(spec.ForkCycle); err != nil {
		return nil, err
	}
	return run.Checkpoint(), nil
}
