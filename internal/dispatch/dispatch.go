// Package dispatch scales the sweep farm out of process: a coordinator
// warms up the base run once (sweepfarm.WarmCheckpoint), then hands
// what-if points to a fleet of bfserve workers over POST /v1/whatif and
// merges their answers into a report byte-identical to a serial
// sweepfarm.Run over the same spec.
//
// The coordinator is built for lossy fleets. Points are leased to
// workers with a deterministic expiry (LeaseTTL bounds the attempt's
// context; an expired lease is re-issued to the next worker). Failed
// attempts retry under an exponential backoff with seeded jitter and a
// hard per-point budget (MaxAttempts, the internal/reliable RTO idiom).
// Each worker carries a circuit breaker (the internal/adaptive idiom):
// BreakerThreshold consecutive failures condemn it, and after
// BreakerCooldown one half-open probe decides re-admission. Straggling
// attempts are hedged: after HedgeAfter the same query is duplicated to
// a second worker and the first full answer wins, with both answers
// journaled — which is safe precisely because the journal merge is
// idempotent (records carry point indices; identical duplicates
// collapse, conflicting ones fail loudly).
//
// Identical queries are computed once: points are grouped by the same
// content address bfserve caches under (checkpoint bytes + fault
// presence + canonical fault frame, hashed), so a sweep with repeated
// scenarios costs one remote call per distinct query.
//
// Durability mirrors the in-process farm: each worker lane appends
// finished points to its own journal under JournalDir, and a new
// coordinator run first merges every *.journal file found there —
// including lanes left by a killed predecessor with a different worker
// count — before dispatching only what is still missing.
//
// The package takes no wall-clock dependency of its own: Config.Now is
// the coordinator clock (cmd/bffarm injects time.Now; tests inject what
// they like), keeping the package inside bflint's detrand contract.
package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bfvlsi/internal/par"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/sweepfarm"
)

// ErrAborted reports a coordinator stopped by Config.AbortAfter with
// points still missing; its journals hold the finished prefix and a
// rerun resumes from them.
var ErrAborted = errors.New("dispatch: aborted")

// Config tunes the coordinator.
type Config struct {
	// Workers are the base URLs of bfserve instances (e.g.
	// "http://127.0.0.1:8417"). At least one is required.
	Workers []string
	// Client issues the HTTP calls; nil selects a plain &http.Client{}
	// (deadlines come from per-attempt contexts, not a client timeout).
	Client *http.Client
	// JournalDir, if non-empty, holds one append-only journal per worker
	// lane (worker-NN.journal). On start every *.journal file in the
	// directory is merged — resuming a killed coordinator, whatever its
	// worker count was. Empty disables persistence and resumability.
	JournalDir string
	// Inflight caps concurrently leased queries; values below 1 select
	// twice the worker count.
	Inflight int
	// LeaseTTL is how long a leased query may stay assigned to a worker
	// before the lease expires and the point is re-issued. It bounds the
	// attempt's context deadline. Values <= 0 select 30s.
	LeaseTTL time.Duration
	// RequestTimeout bounds a single HTTP attempt inside its lease; 0
	// lets the lease TTL alone bound it.
	RequestTimeout time.Duration
	// MaxAttempts is the per-point retry budget, counting the first
	// attempt (the reliable-transport MaxRetries idiom). Values below 1
	// select 4.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry backoff: attempt k
	// sleeps Base<<(k-1), capped at Cap (the reliable RTO doubling
	// idiom). Zero values select 50ms and 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterMax adds a uniform draw from [0, JitterMax) to every backoff
	// sleep, from a rand.Rand seeded with Seed — decorrelating retry
	// storms without forfeiting reproducibility.
	JitterMax time.Duration
	Seed      int64
	// HedgeAfter, if positive and more than one worker is configured,
	// duplicates an attempt still unanswered after this delay onto a
	// second worker; the first full answer wins and both are journaled.
	// Zero disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold consecutive failures open a worker's breaker
	// (values below 1 select 3); an open worker is skipped for
	// BreakerCooldown (default 2s), then admitted one half-open probe.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Live, if non-nil, receives live counter updates (leases, retries,
	// hedges) and a view of the worker breakers, for a /statsz endpoint
	// served while Run is in flight. The Stats returned by Run stays the
	// authoritative end-of-run record.
	Live *Live
	// Now is the coordinator clock, used for lease expiry accounting and
	// breaker cooldowns. Required: the package reads no wall clock of
	// its own (detrand contract); cmd/bffarm injects time.Now.
	Now func() time.Time
	// Sleep replaces time.Sleep for backoff, hedge, and breaker waits;
	// nil selects time.Sleep.
	Sleep func(time.Duration)
	// AbortAfter, if positive, hard-aborts the coordinator once that
	// many queries have been delivered this run: no further leases are
	// granted, in-flight answers are discarded unjournaled, and Run
	// returns ErrAborted. Test hook simulating a kill; zero disables.
	AbortAfter int
}

// validate checks the non-defaultable parts of the config.
func (c *Config) validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("dispatch: no workers configured")
	}
	for i, w := range c.Workers {
		if w == "" {
			return fmt.Errorf("dispatch: worker %d has an empty URL", i)
		}
	}
	if c.Now == nil {
		return fmt.Errorf("dispatch: Config.Now clock is required")
	}
	if c.RequestTimeout < 0 || c.LeaseTTL < 0 || c.HedgeAfter < 0 ||
		c.BackoffBase < 0 || c.BackoffCap < 0 || c.JitterMax < 0 || c.BreakerCooldown < 0 {
		return fmt.Errorf("dispatch: negative duration in config")
	}
	return nil
}

// Stats counts what the coordinator did; one instance is returned per
// Run, also on abort.
type Stats struct {
	Points  int // sweep points in the spec
	Resumed int // points replayed from merged journals
	Groups  int // distinct queries dispatched after dedupe
	Deduped int // points answered by another point's identical query

	Calls     int // HTTP attempts issued, hedges included
	Retries   int // attempts beyond the first for a query
	Hedges    int // hedged duplicate attempts launched
	HedgeWins int // queries whose winning answer came from a hedge

	LeasesGranted int
	LeasesExpired int // leases that hit LeaseTTL before an answer
	Shed          int // 503 overload answers (worker at its inflight cap)

	BreakerOpens   int // breaker transitions into open
	BreakerCloses  int // half-open probes that re-admitted a worker
	DupDeliveries  int // queries delivered twice (hedge double-success)
	JournalRecords int // records appended across worker lanes this run
}

// group is one distinct query: every sweep point sharing a content
// address, the marshaled request they share, and the address itself.
type group struct {
	key     string // hex content address of the query
	indices []int  // spec points answered by this query, ascending
	body    []byte // marshaled whatif request
}

// workerState is one worker lane: its URL, breaker, and journal.
type workerState struct {
	url     string
	breaker *breaker

	jmu     sync.Mutex
	journal *sweepfarm.Journal //bflint:guardedby jmu
}

type coordinator struct {
	cfg    Config
	client *http.Client
	lanes  []*workerState

	runCtx context.Context
	stop   context.CancelFunc

	rngMu sync.Mutex
	rng   *rand.Rand //bflint:guardedby rngMu

	fires sync.WaitGroup // every in-flight attempt, stragglers included

	mu        sync.Mutex
	rr        int                     //bflint:guardedby mu -- round-robin pick cursor
	done      map[int]*routing.Result //bflint:guardedby mu
	delivered int                     //bflint:guardedby mu -- groups delivered this run (AbortAfter counter)
	aborted   bool                    //bflint:guardedby mu
	firstErr  error                   //bflint:guardedby mu
	stats     Stats                   //bflint:guardedby mu
}

// contentKey is the query's content address: checkpoint bytes, a fault
// presence byte, and the canonical fault frame, hashed — the same
// recipe internal/serve uses for its whatif cache key, so coordinator
// dedupe and server-side caching agree on what "the same query" means.
func contentKey(ck []byte, fault *faultFrame) string {
	h := sha256.New()
	h.Write(ck)
	if fault == nil {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
		h.Write(fault.frame)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// faultFrame pairs a point's fault spec with its canonical encoding.
type faultFrame struct {
	frame []byte
}

// Run executes the distributed farm and returns the merged report. With
// a journal directory the run is resumable: killed coordinators pick up
// from whatever their worker lanes managed to journal.
func Run(spec sweepfarm.Spec, cfg Config) (*sweepfarm.Report, *Stats, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Inflight < 1 {
		cfg.Inflight = 2 * len(cfg.Workers)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}

	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &coordinator{
		cfg:    cfg,
		client: cfg.Client,
		runCtx: runCtx,
		stop:   cancel,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		done:   make(map[int]*routing.Result, len(spec.Points)),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, url := range cfg.Workers {
		c.lanes = append(c.lanes, &workerState{
			url:     url,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	c.stats.Points = len(spec.Points)
	cfg.Live.bind(c.lanes)

	if err := c.openJournals(len(spec.Points)); err != nil {
		return nil, nil, err
	}
	c.stats.Resumed = len(c.done)

	runErr := c.runMissing(spec)

	closeErr := c.closeJournals()
	if runErr == nil {
		runErr = closeErr
	}
	st := c.snapshotStats()
	if runErr != nil {
		return nil, st, runErr
	}

	rep := &sweepfarm.Report{Points: make([]sweepfarm.Point, 0, len(c.done)), Resumed: st.Resumed}
	for idx, res := range c.done {
		rep.Points = append(rep.Points, sweepfarm.Point{Index: idx, Result: res})
	}
	sort.Slice(rep.Points, func(i, j int) bool { return rep.Points[i].Index < rep.Points[j].Index })
	return rep, st, nil
}

// openJournals opens one journal per worker lane under JournalDir and
// merges every *.journal file found there into done — the lanes about
// to be written plus any orphans from a predecessor with a different
// worker count.
func (c *coordinator) openJournals(points int) error {
	if c.cfg.JournalDir == "" {
		return nil
	}
	dir := c.cfg.JournalDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dispatch: journal dir: %w", err)
	}
	owned := make(map[string]bool, len(c.lanes))
	var all []sweepfarm.Point
	for i, ws := range c.lanes {
		path := filepath.Join(dir, fmt.Sprintf("worker-%02d.journal", i))
		j, prior, err := sweepfarm.OpenJournal(path)
		if err != nil {
			_ = c.closeJournals()
			return err
		}
		ws.jmu.Lock()
		ws.journal = j
		ws.jmu.Unlock()
		owned[path] = true
		all = append(all, prior...)
	}
	orphans, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		_ = c.closeJournals()
		return fmt.Errorf("dispatch: journal glob: %w", err)
	}
	sort.Strings(orphans)
	for _, path := range orphans {
		if owned[path] {
			continue
		}
		pts, _, err := sweepfarm.ReadJournal(path)
		if err != nil {
			_ = c.closeJournals()
			return err
		}
		all = append(all, pts...)
	}
	merged, _, err := sweepfarm.MergePoints(all)
	if err != nil {
		_ = c.closeJournals()
		return err
	}
	for _, p := range merged {
		if p.Index < 0 || p.Index >= points {
			_ = c.closeJournals()
			return fmt.Errorf("dispatch: journal point %d out of range for a %d-point spec", p.Index, points)
		}
	}
	c.mu.Lock()
	for _, p := range merged {
		c.done[p.Index] = p.Result
	}
	c.mu.Unlock()
	return nil
}

// closeJournals closes every open lane journal, keeping the first
// error: a failed close means the last fsync is unconfirmed, which a
// durability layer must not swallow.
func (c *coordinator) closeJournals() error {
	var first error
	for _, ws := range c.lanes {
		ws.jmu.Lock()
		if ws.journal != nil {
			if err := ws.journal.Close(); err != nil && first == nil {
				first = err
			}
			ws.journal = nil
		}
		ws.jmu.Unlock()
	}
	return first
}

// runMissing warms the checkpoint, groups missing points by content
// address, and drives the dispatch pool over the groups.
func (c *coordinator) runMissing(spec sweepfarm.Spec) error {
	var missing []int
	c.mu.Lock()
	for i := range spec.Points {
		if _, ok := c.done[i]; !ok {
			missing = append(missing, i)
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}

	warm, err := sweepfarm.WarmCheckpoint(spec)
	if err != nil {
		return err
	}
	ck, err := warm.MarshalBinary()
	if err != nil {
		return err
	}

	byKey := make(map[string]*group)
	var groups []*group
	for _, idx := range missing {
		var ff *faultFrame
		if fs := spec.Points[idx]; fs != nil {
			frame, err := fs.MarshalBinary()
			if err != nil {
				return fmt.Errorf("dispatch: point %d: %w", idx, err)
			}
			ff = &faultFrame{frame: frame}
		}
		key := contentKey(ck, ff)
		g := byKey[key]
		if g == nil {
			body, err := marshalWhatif(ck, spec.Points[idx])
			if err != nil {
				return fmt.Errorf("dispatch: point %d: %w", idx, err)
			}
			g = &group{key: key, body: body}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.indices = append(g.indices, idx)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].indices[0] < groups[j].indices[0] })
	c.mu.Lock()
	c.stats.Groups = len(groups)
	c.stats.Deduped = len(missing) - len(groups)
	c.mu.Unlock()

	// A failed group stops the run through c.fail, which cancels
	// c.runCtx; For's own result is that cancellation and adds nothing.
	_ = par.For(c.runCtx, len(groups), c.cfg.Inflight, func(_ context.Context, i int) error {
		if err := c.runGroup(groups[i]); err != nil {
			c.fail(err)
		}
		return nil
	})
	// Hedge stragglers may still be delivering; the journals stay open
	// until every fire has landed.
	c.fires.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstErr != nil {
		return c.firstErr
	}
	if len(c.done) < len(spec.Points) {
		return fmt.Errorf("%w after %d queries, %d points missing",
			ErrAborted, c.delivered, len(spec.Points)-len(c.done))
	}
	return nil
}

// fail records the first hard error and stops the run.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	c.stop()
}

// abort flips the aborted flag and stops the run (AbortAfter hook).
// Caller holds c.mu.
func (c *coordinator) abortLocked() {
	c.aborted = true
	c.stop()
}

// runGroup drives one query to a delivered answer: lease a worker,
// attempt (with hedging), and on failure back off and re-issue up to
// the retry budget.
func (c *coordinator) runGroup(g *group) error {
	for attempt := 1; ; attempt++ {
		worker, err := c.pickWorker(-1)
		if err != nil {
			return nil // run stopped while waiting for a worker
		}
		err = c.attempt(g, worker)
		if err == nil {
			return nil
		}
		if errors.Is(err, errPermanent) {
			return fmt.Errorf("dispatch: point %d: %w", g.indices[0], err)
		}
		if c.stopped() {
			return nil
		}
		if attempt >= c.cfg.MaxAttempts {
			return fmt.Errorf("dispatch: point %d: retry budget (%d attempts) exhausted: %w",
				g.indices[0], c.cfg.MaxAttempts, err)
		}
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		c.cfg.Live.retry()
		c.cfg.Sleep(c.backoff(attempt))
	}
}

// backoff returns the sleep before re-issuing after the k-th failed
// attempt: BackoffBase<<(k-1) capped at BackoffCap (the reliable RTO
// doubling), plus a seeded uniform jitter in [0, JitterMax).
func (c *coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffCap
	if shift := attempt - 1; shift < 30 {
		if exp := c.cfg.BackoffBase << shift; exp < d {
			d = exp
		}
	}
	if c.cfg.JitterMax > 0 {
		c.rngMu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.cfg.JitterMax)))
		c.rngMu.Unlock()
	}
	return d
}

// stopped reports whether the run has been cancelled (error or abort).
func (c *coordinator) stopped() bool {
	return c.runCtx.Err() != nil
}

// pickWorker leases the next available worker round-robin, skipping
// open breakers (and the excluded worker, for hedges). When every
// worker is condemned it sleeps until the earliest breaker can admit a
// half-open probe, so a fully-open fleet heals instead of deadlocking.
func (c *coordinator) pickWorker(exclude int) (int, error) {
	for {
		if c.stopped() {
			return -1, c.runCtx.Err()
		}
		c.mu.Lock()
		start := c.rr
		c.rr++
		c.mu.Unlock()
		wait := time.Duration(-1)
		for k := 0; k < len(c.lanes); k++ {
			i := (start + k) % len(c.lanes)
			if i == exclude {
				continue
			}
			ok, until := c.lanes[i].breaker.allow(c.cfg.Now())
			if ok {
				return i, nil
			}
			if until >= 0 && (wait < 0 || until < wait) {
				wait = until
			}
		}
		if exclude >= 0 {
			// A hedge never waits for capacity; it either finds a spare
			// worker now or stays unhedged.
			return -1, fmt.Errorf("dispatch: no spare worker to hedge on")
		}
		if wait < 0 {
			// Every breaker is half-open with its probe in flight; yield
			// briefly until one resolves.
			wait = time.Millisecond
		}
		c.cfg.Sleep(wait)
	}
}

// attempt sends the query to the primary worker and, if HedgeAfter
// passes without an answer, duplicates it onto a spare worker. The
// first full answer wins; every successful fire delivers (and journals)
// its own answer, so a double success exercises the idempotent merge.
func (c *coordinator) attempt(g *group, primary int) error {
	type outcome struct {
		res    *routing.Result
		worker int
		err    error
	}
	ch := make(chan outcome, 2)
	fire := func(worker int) {
		defer c.fires.Done()
		res, err := c.call(g, worker)
		if err == nil {
			c.deliver(g, res, worker)
		}
		ch <- outcome{res: res, worker: worker, err: err}
	}
	c.fires.Add(1)
	go fire(primary)

	var hedgeTimer <-chan struct{}
	if c.cfg.HedgeAfter > 0 && len(c.lanes) > 1 {
		hedgeTimer = c.after(c.cfg.HedgeAfter)
	}
	outstanding := 1
	var lastErr error
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil {
				if o.worker != primary {
					c.mu.Lock()
					c.stats.HedgeWins++
					c.mu.Unlock()
				}
				return nil
			}
			lastErr = o.err
			if outstanding == 0 {
				return lastErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			spare, err := c.pickWorker(primary)
			if err != nil {
				continue // no spare worker: the primary stays unhedged
			}
			c.mu.Lock()
			c.stats.Hedges++
			c.mu.Unlock()
			c.cfg.Live.hedge()
			c.fires.Add(1)
			go fire(spare)
			outstanding++
		}
	}
}

// after returns a channel that closes once the configured sleep has
// elapsed — a timer built from the injected Sleep so tests control it.
func (c *coordinator) after(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		c.cfg.Sleep(d)
		close(ch)
	}()
	return ch
}

// call performs one leased attempt against one worker: grant the lease,
// bound the attempt by min(LeaseTTL, RequestTimeout), send, and settle
// the breaker and lease books on the way out.
func (c *coordinator) call(g *group, worker int) (*routing.Result, error) {
	ws := c.lanes[worker]
	c.mu.Lock()
	c.stats.LeasesGranted++
	c.stats.Calls++
	c.mu.Unlock()
	c.cfg.Live.leaseGranted()
	defer c.cfg.Live.leaseSettled()

	bound := c.cfg.LeaseTTL
	leaseBounds := true
	if t := c.cfg.RequestTimeout; t > 0 && t < bound {
		bound = t
		leaseBounds = false
	}
	ctx, cancel := context.WithTimeout(c.runCtx, bound)
	defer cancel()

	res, err := postWhatif(ctx, c.client, ws.url, g.body)
	if err != nil {
		if c.runCtx.Err() != nil {
			return nil, c.runCtx.Err() // stopped, not a worker fault
		}
		if errors.Is(err, errShed) {
			c.mu.Lock()
			c.stats.Shed++
			c.mu.Unlock()
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && leaseBounds {
			// The lease, not the per-request timeout, was the binding
			// constraint: this attempt's assignment expired.
			c.mu.Lock()
			c.stats.LeasesExpired++
			c.mu.Unlock()
			err = fmt.Errorf("lease expired after %v: %w", c.cfg.LeaseTTL, err)
		}
		ws.breaker.failure(c.cfg.Now())
		return nil, err
	}
	ws.breaker.success()
	return res, nil
}

// deliver journals the answer to the worker's lane and records it for
// the report. Duplicate deliveries (a hedge pair both succeeding) are
// journaled again — the merge collapses identical records — and
// counted. After an abort, answers are dropped unjournaled, like a
// killed process.
func (c *coordinator) deliver(g *group, res *routing.Result, worker int) {
	ws := c.lanes[worker]
	c.mu.Lock()
	if c.aborted || c.firstErr != nil {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	appended := 0
	ws.jmu.Lock()
	if ws.journal != nil {
		for _, idx := range g.indices {
			if err := ws.journal.Append(sweepfarm.Point{Index: idx, Result: res}); err != nil {
				ws.jmu.Unlock()
				c.fail(err)
				return
			}
			appended++
		}
	}
	ws.jmu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.JournalRecords += appended
	if c.aborted {
		// The abort landed while this answer was being journaled: the
		// record survives on disk, as a killed process's would, but the
		// run no longer counts it.
		return
	}
	if _, dup := c.done[g.indices[0]]; dup {
		c.stats.DupDeliveries++
		return
	}
	for _, idx := range g.indices {
		c.done[idx] = res
	}
	c.delivered++
	c.cfg.Live.deliver()
	if c.cfg.AbortAfter > 0 && c.delivered >= c.cfg.AbortAfter {
		c.abortLocked()
	}
}

// snapshotStats folds the breaker counters into a copy of the stats.
func (c *coordinator) snapshotStats() *Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	for _, ws := range c.lanes {
		opened, reclosed := ws.breaker.counters()
		st.BreakerOpens += opened
		st.BreakerCloses += reclosed
	}
	return &st
}
