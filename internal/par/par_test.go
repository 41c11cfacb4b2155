package par_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bfvlsi/internal/par"
)

const workers = 4

// settled waits for the goroutine count to come back to base, failing
// the test if it has not within five seconds.
func settled(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// peak is the largest value it has seen, safe for concurrent use.
type peak struct {
	mu sync.Mutex
	n  int
}

func (p *peak) see(v int) {
	p.mu.Lock()
	p.n = max(p.n, v)
	p.mu.Unlock()
}

// TestForRunsEachIndexOnce checks that every index runs exactly once,
// that results written by index come out in input order, and that no
// more than min(workers, n) calls run at once, on no more than that many
// goroutines above the caller's.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, workers, 57} {
		base := runtime.NumGoroutine()
		runs := make([]atomic.Int32, n)
		out := make([]int, n)
		var active atomic.Int32
		var peakActive, peakGoroutines peak
		err := par.For(context.Background(), n, workers, func(_ context.Context, i int) error {
			peakActive.see(int(active.Add(1)))
			defer active.Add(-1)
			peakGoroutines.see(runtime.NumGoroutine())
			runs[i].Add(1)
			out[i] = i * i
			runtime.Gosched()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, got)
			}
			if out[i] != i*i {
				t.Errorf("n=%d: out[%d] = %d", n, i, out[i])
			}
		}
		limit := min(workers, n)
		if got := peakActive.n; got > limit {
			t.Errorf("n=%d: %d calls ran at once, want at most %d", n, got, limit)
		}
		if got := peakGoroutines.n; got > base+limit {
			t.Errorf("n=%d: %d goroutines inside For, want at most %d above baseline %d", n, got, limit, base)
		}
		settled(t, base, "success")
	}
}

// TestForFirstErrorStops checks that the first error cancels the
// context handed to the calls in flight, stops the hand-out and is
// returned. Index 0 fails at once; every other call waits for the
// cancellation, so no index past the first workers is ever handed out.
func TestForFirstErrorStops(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	var calls atomic.Int32
	err := par.For(context.Background(), 100, workers, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i >= workers {
			t.Errorf("index %d handed out after the error", i)
		}
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return errors.New("late error")
	})
	if !errors.Is(err, boom) {
		t.Errorf("For = %v, want the first error %v", err, boom)
	}
	if got := calls.Load(); got > workers {
		t.Errorf("%d calls ran, want at most %d", got, workers)
	}
	settled(t, base, "error")
}

// TestForCancelStops checks that a cancelled context stops the hand-out
// and is reported, both when it is cancelled before For starts and when
// a call cancels it midway.
func TestForCancelStops(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := par.For(ctx, 10, workers, func(context.Context, int) error {
		t.Error("call made under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("For under a cancelled context = %v, want context.Canceled", err)
	}
	settled(t, base, "cancelled before start")

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	err = par.For(ctx, 100, workers, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i >= workers {
			t.Errorf("index %d handed out after the cancel", i)
		}
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("For cancelled midway = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > workers {
		t.Errorf("%d calls ran, want at most %d", got, workers)
	}
	settled(t, base, "cancelled midway")
}
