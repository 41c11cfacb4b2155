package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bfvlsi/internal/dispatch/chaos"
	"bfvlsi/internal/serve"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/sweepfarm"
	"bfvlsi/internal/wire"
)

// testSpec mirrors the sweepfarm test farm — a VC stack with reliable
// transport, one control point plus a fault-rate × seed grid — and adds
// a deliberate duplicate of one scenario so content-address dedupe has
// something to collapse.
func testSpec() sweepfarm.Spec {
	base := snapshot.Spec{
		Route: wire.RouteSpec{
			N: 3, Lambda: 0.30, Warmup: 20, Cycles: 60, Seed: 11,
			BufferLimit: 4, TTL: 48,
		},
		Reliable: &snapshot.ReliableSpec{Timeout: 12, MaxRetries: 3, Jitter: 2, Seed: 5, MeasureFrom: 20},
	}
	points := []*wire.FaultSpec{nil} // control
	for _, rate := range []float64{0.02, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			points = append(points, &wire.FaultSpec{N: 3, LinkRate: rate, Seed: seed})
		}
	}
	// Same scenario as points[1]: a distinct index, an identical query.
	points = append(points, &wire.FaultSpec{N: 3, LinkRate: 0.02, Seed: 1})
	return sweepfarm.Spec{Base: base, ForkCycle: 20, Points: points}
}

// serialEncoding is the golden reference: the canonical bytes of an
// uninterrupted in-process sweepfarm.Run over the same spec.
func serialEncoding(t *testing.T, spec sweepfarm.Spec) []byte {
	t.Helper()
	rep, err := sweepfarm.Run(spec, sweepfarm.Options{Workers: 4})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	b, err := rep.Encode()
	if err != nil {
		t.Fatalf("serial encode: %v", err)
	}
	return b
}

// worker starts an in-process bfserve behind a chaos proxy with the
// given schedule (nil = pass everything) and returns its URL plus the
// proxy for injection counters.
func worker(t *testing.T, sched chaos.Schedule) (string, *chaos.Proxy) {
	t.Helper()
	var mu sync.Mutex
	now := time.Unix(0, 0)
	srv := serve.New(serve.Config{
		CacheEntries: 64,
		MaxDim:       8,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Millisecond)
			return now
		},
	})
	proxy := &chaos.Proxy{Next: srv.Handler(), Schedule: sched, Delay: 200 * time.Millisecond}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	return ts.URL, proxy
}

// testConfig returns a coordinator config tuned for fast tests: tight
// backoff, a generous retry budget, and the real clock (test files are
// outside the detrand contract).
func testConfig(workers ...string) Config {
	return Config{
		Workers:          workers,
		LeaseTTL:         10 * time.Second,
		RequestTimeout:   5 * time.Second,
		MaxAttempts:      8,
		BackoffBase:      time.Millisecond,
		BackoffCap:       20 * time.Millisecond,
		JitterMax:        time.Millisecond,
		Seed:             7,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Now:              time.Now,
	}
}

func mustRun(t *testing.T, spec sweepfarm.Spec, cfg Config) (*sweepfarm.Report, *Stats) {
	t.Helper()
	rep, st, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("dispatch.Run: %v", err)
	}
	return rep, st
}

func encode(t *testing.T, rep *sweepfarm.Report) []byte {
	t.Helper()
	b, err := rep.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

// TestDistributedMatchesSerial is the core identity: a clean 3-worker
// distributed farm produces bytes identical to the serial farm, and the
// duplicated scenario costs zero extra remote calls.
func TestDistributedMatchesSerial(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)

	u0, p0 := worker(t, nil)
	u1, p1 := worker(t, nil)
	u2, p2 := worker(t, nil)
	rep, st := mustRun(t, spec, testConfig(u0, u1, u2))

	if got := encode(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("distributed report differs from the serial one")
	}
	if st.Deduped != 1 {
		t.Fatalf("deduped %d points, want 1 (the duplicated scenario)", st.Deduped)
	}
	if st.Groups != len(spec.Points)-1 {
		t.Fatalf("dispatched %d groups, want %d", st.Groups, len(spec.Points)-1)
	}
	if calls := p0.Requests() + p1.Requests() + p2.Requests(); calls != st.Groups {
		t.Fatalf("clean fleet saw %d requests for %d groups", calls, st.Groups)
	}
	if st.Retries != 0 || st.Shed != 0 || st.BreakerOpens != 0 {
		t.Fatalf("clean fleet recorded failures: %+v", *st)
	}
}

// TestChaosSchedules is the tentpole acceptance sweep: under every
// chaos schedule — drops, 500s, truncated bodies, duplicated bodies,
// delays with hedging, and a mixed storm — the merged report stays
// byte-identical to the uninterrupted serial run.
func TestChaosSchedules(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)

	cases := []struct {
		name      string
		schedules []chaos.Schedule // one per worker; nil passes
		hedge     time.Duration
	}{
		{"drops", []chaos.Schedule{chaos.Cycle(chaos.Drop, chaos.Pass), nil, nil}, 0},
		{"http500s", []chaos.Schedule{chaos.Cycle(chaos.Error500, chaos.Pass), chaos.Cycle(chaos.Pass, chaos.Error500), nil}, 0},
		{"truncated", []chaos.Schedule{chaos.Cycle(chaos.Truncate, chaos.Pass), nil, nil}, 0},
		{"duplicated", []chaos.Schedule{chaos.Cycle(chaos.Duplicate, chaos.Pass), nil, nil}, 0},
		{"delays hedged", []chaos.Schedule{chaos.Cycle(chaos.Delay), nil, nil}, 10 * time.Millisecond},
		{"mixed storm", []chaos.Schedule{
			chaos.Cycle(chaos.Drop, chaos.Pass, chaos.Truncate),
			chaos.Cycle(chaos.Error500, chaos.Pass, chaos.Duplicate),
			chaos.Cycle(chaos.Pass, chaos.Delay),
		}, 15 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			urls := make([]string, len(c.schedules))
			for i, sched := range c.schedules {
				urls[i], _ = worker(t, sched)
			}
			cfg := testConfig(urls...)
			cfg.HedgeAfter = c.hedge
			rep, st := mustRun(t, spec, cfg)
			if got := encode(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("report under %s chaos differs from the serial run", c.name)
			}
			if strings.Contains(c.name, "hedged") && st.Hedges == 0 {
				t.Fatalf("straggler schedule hedged nothing: %+v", *st)
			}
		})
	}
}

// TestWorkerKilledMidLease covers the acceptance case of a worker dying
// after taking a lease: worker 0 accepts every request and severs the
// connection without answering, so each of its leases is granted and
// then lost; retries move the points to the healthy worker and the
// report stays byte-identical.
func TestWorkerKilledMidLease(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)

	u0, p0 := worker(t, chaos.Cycle(chaos.Drop))
	u1, _ := worker(t, nil)
	rep, st := mustRun(t, spec, testConfig(u0, u1))

	if got := encode(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("report with a dead worker differs from the serial run")
	}
	if p0.Injected(chaos.Drop) == 0 {
		t.Fatal("dead worker was never even tried")
	}
	if st.Retries == 0 {
		t.Fatalf("lost leases triggered no retries: %+v", *st)
	}
	if st.LeasesGranted <= st.Groups {
		t.Fatalf("%d leases for %d groups: lost leases were not re-issued", st.LeasesGranted, st.Groups)
	}
}

// TestBreakerCondemnsAndRecovers drives worker 0 through sick-then-
// healthy: two consecutive 500s open its breaker, then clean answers so
// the half-open probe re-admits it. Worker 1 answers slowly (chaos
// Delay) so the run outlasts the cooldown and the round-robin pick is
// guaranteed to reach the condemned worker again while work remains.
// One query in flight at a time makes worker 0's two failing calls
// consecutive: with several in flight, its third call (a success) could
// settle between them and reset the strike count.
func TestBreakerCondemnsAndRecovers(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)

	u0, _ := worker(t, chaos.FirstN(2, chaos.Error500))
	u1, _ := worker(t, chaos.Cycle(chaos.Delay))
	cfg := testConfig(u0, u1)
	cfg.Inflight = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 5 * time.Millisecond
	rep, st := mustRun(t, spec, cfg)

	if got := encode(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("report with a condemned worker differs from the serial run")
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("six consecutive 500s opened no breaker: %+v", *st)
	}
	if st.BreakerCloses == 0 {
		t.Fatalf("recovered worker was never re-admitted: %+v", *st)
	}
}

// TestCoordinatorKillResume is the durability acceptance case: a
// coordinator hard-killed mid-run (AbortAfter) leaves per-worker
// journals behind; a new coordinator — with a different worker count,
// so one journal is an orphan lane — merges them and converges to the
// serial bytes, replaying instead of recomputing.
func TestCoordinatorKillResume(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)
	dir := t.TempDir()

	u0, _ := worker(t, chaos.Cycle(chaos.Pass, chaos.Error500))
	u1, _ := worker(t, nil)
	u2, _ := worker(t, nil)
	killed := testConfig(u0, u1, u2)
	killed.JournalDir = dir
	killed.AbortAfter = 3
	_, st, err := Run(spec, killed)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("AbortAfter returned %v, want ErrAborted", err)
	}
	if st.JournalRecords == 0 {
		t.Fatal("killed coordinator journaled nothing")
	}

	// Resume with two workers: worker-02.journal is now an orphan lane
	// that must still be merged.
	resumeCfg := testConfig(u0, u1)
	resumeCfg.JournalDir = dir
	rep, st2 := mustRun(t, spec, resumeCfg)
	if got := encode(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("killed-and-resumed coordinator differs from the serial run")
	}
	if st2.Resumed == 0 {
		t.Fatal("resume replayed nothing from the journals")
	}
	if rep.Resumed != st2.Resumed {
		t.Fatalf("report says %d resumed, stats say %d", rep.Resumed, st2.Resumed)
	}

	// A third run over the complete journals computes nothing at all.
	third, st3 := mustRun(t, spec, resumeCfg)
	if got := encode(t, third); !bytes.Equal(got, want) {
		t.Fatalf("replay-only run differs from the serial run")
	}
	if st3.Calls != 0 || st3.Resumed != len(spec.Points) {
		t.Fatalf("replay-only run made %d calls, resumed %d of %d", st3.Calls, st3.Resumed, len(spec.Points))
	}

	// The merged journals themselves hold the full point set.
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := sweepfarm.MergeJournals(paths...)
	if err != nil {
		t.Fatalf("MergeJournals: %v", err)
	}
	if len(pts) != len(spec.Points) {
		t.Fatalf("journals hold %d of %d points", len(pts), len(spec.Points))
	}
}

// inCoordinator counts the goroutines whose stack runs through fn, a
// function of this package such as "(*coordinator).attempt.func".
func inCoordinator(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "bfvlsi/internal/dispatch."+fn) {
			n++
		}
	}
	return n
}

// TestRunJoinsItsGoroutines checks that Run leaves nothing running:
// when it returns no group worker and no hedged attempt is still in
// flight, and once the fleet's servers and idle connections are closed the
// goroutine count comes back to its baseline, with and without hedging.
// Worker 0 holds every request for 200ms, so under hedging the losing
// primaries are the stragglers Run must wait for.
func TestRunJoinsItsGoroutines(t *testing.T) {
	spec := testSpec()
	for _, hedge := range []time.Duration{0, 10 * time.Millisecond} {
		base := runtime.NumGoroutine()
		tr := &http.Transport{}
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			var sched chaos.Schedule
			if hedge > 0 {
				sched = chaos.Cycle(chaos.Delay)
			}
			u0, _ := worker(t, sched)
			u1, _ := worker(t, nil)
			cfg := testConfig(u0, u1)
			cfg.Client = &http.Client{Transport: tr}
			cfg.HedgeAfter = hedge
			cfg.Live = &Live{}
			_, st := mustRun(t, spec, cfg)
			// A fire settles its lease in call and delivers before its
			// deferred Done, so once Run has waited none of these
			// remain; its goroutine may still sit between Done and
			// exit, which no check here looks at. Run cancels unjoined
			// stragglers as it returns and they end within
			// microseconds, so the lease count, read at once, is what
			// catches them.
			if n := cfg.Live.Snapshot().LeasesOutstanding; n != 0 {
				t.Errorf("%d leases outstanding after Run returned", n)
			}
			for _, fn := range []string{"(*coordinator).call", "(*coordinator).deliver", "(*coordinator).runGroup"} {
				if n := inCoordinator(fn); n > 0 {
					t.Errorf("%d goroutines still in %s after Run returned", n, fn)
				}
			}
			if hedge > 0 && st.Hedges == 0 {
				t.Errorf("straggling worker hedged nothing: %+v", *st)
			}
		})
		tr.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("hedge=%v: %d goroutines still running, baseline %d", hedge, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRetryBudgetExhausted pins the failure path: a fleet that never
// answers exhausts the per-point budget and surfaces a real error, not
// a hang.
func TestRetryBudgetExhausted(t *testing.T) {
	spec := testSpec()
	u0, _ := worker(t, chaos.Cycle(chaos.Error500))
	cfg := testConfig(u0)
	cfg.MaxAttempts = 2
	cfg.BreakerThreshold = 100 // keep the breaker out of this test
	_, _, err := Run(spec, cfg)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("all-sick fleet returned %v, want a retry-budget error", err)
	}
}

// TestConfigValidate covers the pure validation surface.
func TestConfigValidate(t *testing.T) {
	spec := testSpec()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no workers", func(c *Config) { c.Workers = nil }, "no workers"},
		{"empty url", func(c *Config) { c.Workers = []string{""} }, "empty URL"},
		{"nil clock", func(c *Config) { c.Now = nil }, "clock is required"},
		{"negative lease", func(c *Config) { c.LeaseTTL = -time.Second }, "negative duration"},
		{"negative hedge", func(c *Config) { c.HedgeAfter = -time.Second }, "negative duration"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig("http://127.0.0.1:1")
			c.mut(&cfg)
			_, _, err := Run(spec, cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want error containing %q", err, c.want)
			}
		})
	}
}

// TestChaosSweepSmoke is the `make chaos-sweep` entry point: a
// coordinator over three in-process workers behind a mixed chaos storm
// with hedging and journals, asserting byte-identity. Run under -race
// it doubles as the concurrency audit for the whole dispatch path.
func TestChaosSweepSmoke(t *testing.T) {
	spec := testSpec()
	want := serialEncoding(t, spec)

	u0, _ := worker(t, chaos.Cycle(chaos.Pass, chaos.Drop, chaos.Delay))
	u1, _ := worker(t, chaos.Cycle(chaos.Error500, chaos.Pass, chaos.Truncate))
	u2, _ := worker(t, chaos.Cycle(chaos.Pass, chaos.Duplicate))
	cfg := testConfig(u0, u1, u2)
	cfg.HedgeAfter = 15 * time.Millisecond
	cfg.JournalDir = t.TempDir()
	rep, st := mustRun(t, spec, cfg)

	if got := encode(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("chaos-sweep report differs from the serial run")
	}
	if st.Calls < st.Groups {
		t.Fatalf("%d calls for %d groups", st.Calls, st.Groups)
	}
	t.Logf("chaos-sweep: %+v", *st)
}

// TestClientRejectsBadAnswers unit-tests the response validator against
// handcrafted bodies: missing results, trailing documents, and broken
// conservation all read as retryable corruption, never as data.
func TestClientRejectsBadAnswers(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty object", `{}`},
		{"null result", `{"result":null}`},
		{"trailing document", `{"result":{}}{"result":{}}`},
		{"broken conservation", `{"result":{"totalInjected":5,"totalDelivered":1}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write([]byte(c.body))
			}))
			t.Cleanup(ts.Close)
			_, err := postWhatif(context.Background(), ts.Client(), ts.URL, []byte(`{}`))
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("got %v, want errCorrupt", err)
			}
		})
	}
}
