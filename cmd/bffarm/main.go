// Command bffarm runs a fault-scenario sweep on a fleet of bfserve
// workers (see internal/dispatch): the base run is warmed up and
// checkpointed locally once, then every sweep point is handed out over
// POST /v1/whatif with leases, retries under exponential backoff,
// per-worker circuit breakers, and optional request hedging. The merged
// report is byte-identical to what a local bfsweep over the same spec
// produces.
//
// Usage:
//
//	bffarm -workers http://h1:8417,http://h2:8417 -n 6 -lambda 0.2
//	bffarm -workers http://h1:8417 -rates 0.02,0.05 -faultseeds 1,2,3
//	bffarm -workers ... -journaldir farm.d     # killable and resumable
//	bffarm -workers ... -hedge 200ms           # duplicate stragglers
//
// With -journaldir every worker lane journals finished points (fsynced
// per record); a killed coordinator rerun merges all journals in the
// directory and dispatches only what is missing.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"bfvlsi/internal/dispatch"
	"bfvlsi/internal/sweepfarm"
)

// options carries every flag value. Parsing and validation are pure (no
// exits, no prints): main turns a validation error into the exit-2
// usage path, and the tests drive the same code with table argv lists.
type options struct {
	// sweep shape, shared with bfsweep
	grid sweepfarm.Grid

	// fleet and reliability knobs
	workers    string
	journalDir string
	inflight   int
	lease      time.Duration
	timeout    time.Duration
	attempts   int
	backoff    time.Duration
	backoffCap time.Duration
	jitter     time.Duration
	retrySeed  int64
	hedge      time.Duration
	breaker    int
	cooldown   time.Duration
	statsAddr  string

	workerList []string
}

// newOptions registers every flag on the given set.
func newOptions(set *flag.FlagSet) *options {
	o := &options{}
	o.grid.RegisterFlags(set)
	set.StringVar(&o.workers, "workers", "", "comma-separated bfserve worker base URLs (required)")
	set.StringVar(&o.journalDir, "journaldir", "", "per-worker journal directory (empty = not resumable)")
	set.IntVar(&o.inflight, "inflight", 0, "concurrently leased queries (0 = twice the worker count)")
	set.DurationVar(&o.lease, "lease", 30*time.Second, "lease TTL: how long a point may stay assigned to a worker")
	set.DurationVar(&o.timeout, "timeout", 0, "per-request deadline inside the lease (0 = lease TTL only)")
	set.IntVar(&o.attempts, "attempts", 4, "per-point retry budget, first attempt included")
	set.DurationVar(&o.backoff, "backoff", 50*time.Millisecond, "retry backoff base (doubles per attempt)")
	set.DurationVar(&o.backoffCap, "backoffcap", 2*time.Second, "retry backoff cap")
	set.DurationVar(&o.jitter, "jitter", 25*time.Millisecond, "max uniform jitter added to each backoff")
	set.Int64Var(&o.retrySeed, "retryseed", 1, "seed for the backoff jitter")
	set.DurationVar(&o.hedge, "hedge", 0, "hedge stragglers onto a second worker after this delay (0 = off)")
	set.IntVar(&o.breaker, "breaker", 3, "consecutive failures that open a worker's circuit breaker")
	set.DurationVar(&o.cooldown, "cooldown", 2*time.Second, "breaker cooldown before a half-open probe")
	set.StringVar(&o.statsAddr, "statsaddr", "", "serve GET /statsz (live fleet counters and breaker states as JSON) on this address while the farm runs (empty = off)")
	return o
}

// validate audits flag ranges and parses the list-valued flags.
func (o *options) validate() error {
	if err := o.grid.Validate(); err != nil {
		return err
	}
	for _, part := range strings.Split(o.workers, ",") {
		if part = strings.TrimSpace(part); part != "" {
			o.workerList = append(o.workerList, part)
		}
	}
	if len(o.workerList) == 0 {
		return fmt.Errorf("-workers is required: give at least one bfserve base URL")
	}
	for _, u := range o.workerList {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("-workers: %q is not an http(s) URL", u)
		}
	}
	if o.inflight < 0 {
		return fmt.Errorf("-inflight %d is negative (0 selects the default)", o.inflight)
	}
	if o.lease <= 0 {
		return fmt.Errorf("-lease %v must be positive", o.lease)
	}
	if o.timeout < 0 || o.backoff < 0 || o.backoffCap < 0 || o.jitter < 0 || o.hedge < 0 || o.cooldown < 0 {
		return fmt.Errorf("negative duration flag")
	}
	if o.attempts < 1 {
		return fmt.Errorf("-attempts %d must be at least 1", o.attempts)
	}
	if o.breaker < 1 {
		return fmt.Errorf("-breaker %d must be at least 1", o.breaker)
	}
	return nil
}

// dispatchConfig assembles the coordinator config from the flags.
func (o *options) dispatchConfig() dispatch.Config {
	return dispatch.Config{
		Workers:          o.workerList,
		JournalDir:       o.journalDir,
		Inflight:         o.inflight,
		LeaseTTL:         o.lease,
		RequestTimeout:   o.timeout,
		MaxAttempts:      o.attempts,
		BackoffBase:      o.backoff,
		BackoffCap:       o.backoffCap,
		JitterMax:        o.jitter,
		Seed:             o.retrySeed,
		HedgeAfter:       o.hedge,
		BreakerThreshold: o.breaker,
		BreakerCooldown:  o.cooldown,
		// The coordinator is where determinism ends and operations begin:
		// this is the command's one wall-clock injection point (lease
		// expiry and breaker cooldowns).
		Now: time.Now, //bflint:ignore detrand
	}
}

// serveStats starts the /statsz endpoint on addr, returning the bound
// address (addr may carry port 0) and a stop function that shuts the
// listener down and joins the serve goroutine.
func serveStats(addr string, live *dispatch.Live) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-statsaddr: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/statsz", live.Handler())
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always http.ErrServerClosed after a clean Close
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// run executes the distributed farm and writes the report table plus a
// fleet summary; it returns the process exit code.
func run(o *options, stdout, stderr io.Writer) int {
	spec := o.grid.Spec()
	cfg := o.dispatchConfig()
	if o.statsAddr != "" {
		cfg.Live = dispatch.NewLive()
		bound, stop, err := serveStats(o.statsAddr, cfg.Live)
		if err != nil {
			fmt.Fprintln(stderr, "bffarm:", err)
			return 1
		}
		defer stop()
		fmt.Fprintf(stderr, "bffarm: serving live stats on http://%s/statsz\n", bound)
	}
	rep, st, err := dispatch.Run(spec, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bffarm:", err)
		return 1
	}
	fmt.Fprintf(stdout, "B_%d lambda=%.4f, %d points (%d from journals), fork at cycle %d, %d workers\n",
		o.grid.Dim, o.grid.Lambda, len(rep.Points), rep.Resumed, spec.ForkCycle, len(o.workerList))
	if err := rep.WriteTable(stdout, spec.Points); err != nil {
		fmt.Fprintln(stderr, "bffarm:", err)
		return 1
	}
	fmt.Fprintf(stdout,
		"fleet: %d queries (%d deduped), %d calls, %d retries, %d hedges (%d won), %d leases (%d expired), %d shed, breakers %d opened / %d re-closed\n",
		st.Groups, st.Deduped, st.Calls, st.Retries, st.Hedges, st.HedgeWins,
		st.LeasesGranted, st.LeasesExpired, st.Shed, st.BreakerOpens, st.BreakerCloses)
	return 0
}

func main() {
	set := flag.NewFlagSet("bffarm", flag.ExitOnError)
	o := newOptions(set)
	_ = set.Parse(os.Args[1:])
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bffarm:", err)
		set.Usage()
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}
