// Command bffault drives the fault-injection subsystem: single runs under
// random or module-correlated faults, link-fault-rate degradation sweeps,
// and the packaging comparison (row vs nucleus vs naive modules as
// failure domains).
//
// Usage:
//
//	bffault -n 6 -lambda 0.1 -linkrate 0.02            # 2% of links dead
//	bffault -n 6 -lambda 0.1 -noderate 0.01 -policy drop
//	bffault -n 6 -lambda 0.1 -transient 40 -repair 50  # transient faults
//	bffault -n 6 -lambda 0.1 -killmodules 2 -scheme nucleus
//	bffault -n 6 -lambda 0.1 -sweep 0,0.01,0.02,0.05,0.1
//	bffault -n 6 -lambda 0.1 -compare -kills 0,1,2,4   # packaging schemes
//	bffault ... -csv                                   # CSV instead of table
//
// With -reliable the end-to-end retransmission transport rides along:
//
//	bffault -n 6 -lambda 0.1 -linkrate 0.05 -reliable  # single run + payload stats
//	bffault -n 6 -lambda 0.1 -reliable -sweep 0,0.05,0.1
//	bffault -n 6 -lambda 0.1 -reliable -sweep 0,0.05,0.1 -outage 50
//	bffault -n 6 -lambda 0.1 -reliable -compare -kills 0,1,2
//	bffault ... -reliable -timeout 40 -retries 5 -jitter 4
//
// With -adaptive the online fault-aware router replaces the static
// policy: link health is learned through circuit breakers, packets take
// bounded dimension-shift detours around permanent holes, and epoch
// link-state dissemination excises dead destinations. Sweeps and
// comparisons then measure the E23 recovery modes (drop / misroute /
// adaptive / adaptive+retx):
//
//	bffault -n 6 -lambda 0.06 -killmodules 2 -adaptive # single adaptive run
//	bffault -n 6 -lambda 0.06 -adaptive -sweep 0,0.02,0.05
//	bffault -n 6 -lambda 0.06 -adaptive -compare -kills 0,2,4
//	bffault ... -adaptive -threshold 3 -probe 12 -maxdetours 4 -epoch 24
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

// options carries every flag value plus the FlagSet they were parsed
// from, so validation can distinguish explicitly-set flags from
// defaults. Parsing and validation are pure (no exits, no prints): main
// turns a validation error into the exit-2 usage path, and the tests
// drive the same code with table argv lists.
type options struct {
	set *flag.FlagSet

	dim     int
	lambda  float64
	warmup  int
	cycles  int
	seed    int64
	buffers int
	ttl     int
	policy  string

	linkRate  float64
	nodeRate  float64
	transient int
	repair    int

	killModules int
	scheme      string

	sweepRates string
	compare    bool
	kills      string
	csv        bool

	reliableOn bool
	rtoBase    int
	retries    int
	jitter     int
	maxRTO     int
	outage     int

	adaptiveOn bool
	threshold  int
	probeIval  int
	maxDetours int
	epoch      int
}

// newOptions registers every flag on the given set.
func newOptions(set *flag.FlagSet) *options {
	o := &options{set: set}
	set.IntVar(&o.dim, "n", 6, "butterfly dimension")
	set.Float64Var(&o.lambda, "lambda", 0.1, "per-node injection probability")
	set.IntVar(&o.warmup, "warmup", 300, "warmup cycles")
	set.IntVar(&o.cycles, "cycles", 1000, "measured cycles")
	set.Int64Var(&o.seed, "seed", 1, "random seed (faults and traffic)")
	set.IntVar(&o.buffers, "buffers", 0, "per-link buffer limit (0 = unbounded)")
	set.IntVar(&o.ttl, "ttl", 0, "packet lifetime in cycles (0 = 16n when faults are present)")
	set.StringVar(&o.policy, "policy", "misroute", "dead-link policy: misroute | drop")

	set.Float64Var(&o.linkRate, "linkrate", 0, "fraction of links to fail permanently")
	set.Float64Var(&o.nodeRate, "noderate", 0, "fraction of nodes to fail permanently")
	set.IntVar(&o.transient, "transient", 0, "number of random transient link faults")
	set.IntVar(&o.repair, "repair", 100, "repair delay for transient faults, cycles")

	set.IntVar(&o.killModules, "killmodules", 0, "number of whole modules to fail")
	set.StringVar(&o.scheme, "scheme", "nucleus", "module scheme for -killmodules: row | nucleus | naive")

	set.StringVar(&o.sweepRates, "sweep", "", "comma-separated link fault rates to sweep")
	set.BoolVar(&o.compare, "compare", false, "module-kill comparison across packaging schemes")
	set.StringVar(&o.kills, "kills", "0,1,2,4", "comma-separated module kill counts for -compare")
	set.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")

	set.BoolVar(&o.reliableOn, "reliable", false, "attach the end-to-end retransmission transport")
	set.IntVar(&o.rtoBase, "timeout", 0, "base retransmission timeout in cycles (0 = 8n)")
	set.IntVar(&o.retries, "retries", 3, "retry budget per payload")
	set.IntVar(&o.jitter, "jitter", -1, "retry jitter in cycles (-1 = n)")
	set.IntVar(&o.maxRTO, "maxtimeout", 0, "cap on the exponential backoff (0 = uncapped)")
	set.IntVar(&o.outage, "outage", 0, "reliability sweep: transient outages of this many cycles instead of permanent faults")

	set.BoolVar(&o.adaptiveOn, "adaptive", false, "replace the static policy with the online fault-aware adaptive router")
	set.IntVar(&o.threshold, "threshold", 0, "consecutive failures that open a link breaker (0 = 2)")
	set.IntVar(&o.probeIval, "probe", 0, "probe interval for open breakers, cycles (0 = 2n)")
	set.IntVar(&o.maxDetours, "maxdetours", 0, "deliberate detour budget per packet (0 = 3)")
	set.IntVar(&o.epoch, "epoch", -1, "link-state dissemination period, cycles (-1 = 4n, 0 = off)")
	return o
}

// parseOptions parses argv and validates the combination. It never exits
// or prints beyond the FlagSet's own output.
func parseOptions(args []string) (*options, error) {
	set := flag.NewFlagSet("bffault", flag.ContinueOnError)
	o := newOptions(set)
	if err := set.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// explicit returns the set of flag names the command line actually
// mentioned.
func (o *options) explicit() map[string]bool {
	seen := make(map[string]bool)
	o.set.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	return seen
}

// validate audits ranges and mutually exclusive mode/flag combinations.
// Every rejected combination here exits 2 via main: a flag the selected
// mode would silently ignore is a mistake, not a preference.
func (o *options) validate() error {
	if o.dim < 1 || o.dim > 14 {
		return fmt.Errorf("-n %d out of range [1,14]", o.dim)
	}
	if o.lambda <= 0 || o.lambda > 1 {
		return fmt.Errorf("-lambda %v outside (0,1]", o.lambda)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup %d is negative", o.warmup)
	}
	if o.cycles <= 0 {
		return fmt.Errorf("-cycles %d must be positive", o.cycles)
	}
	if o.buffers < 0 {
		return fmt.Errorf("-buffers %d is negative", o.buffers)
	}
	if o.ttl < 0 {
		return fmt.Errorf("-ttl %d is negative", o.ttl)
	}
	if o.linkRate < 0 || o.linkRate > 1 {
		return fmt.Errorf("-linkrate %v outside [0,1]", o.linkRate)
	}
	if o.nodeRate < 0 || o.nodeRate > 1 {
		return fmt.Errorf("-noderate %v outside [0,1]", o.nodeRate)
	}
	if o.transient < 0 {
		return fmt.Errorf("-transient %d is negative", o.transient)
	}
	if o.repair <= 0 {
		return fmt.Errorf("-repair %d must be positive", o.repair)
	}
	if o.killModules < 0 {
		return fmt.Errorf("-killmodules %d is negative", o.killModules)
	}
	if _, err := parsePolicy(o.policy); err != nil {
		return err
	}
	switch o.scheme {
	case "row", "nucleus", "naive":
	default:
		return fmt.Errorf("unknown scheme %q (want row, nucleus, or naive)", o.scheme)
	}
	seen := o.explicit()
	if o.sweepRates != "" && o.compare {
		return fmt.Errorf("-sweep and -compare are mutually exclusive")
	}
	if seen["kills"] && !o.compare {
		return fmt.Errorf("-kills set without -compare")
	}
	if o.sweepRates != "" || o.compare {
		// Sweeps and comparisons build their own fault plans: a
		// single-run fault flag would be silently ignored.
		var stray []string
		for _, f := range []string{"linkrate", "noderate", "transient", "repair", "killmodules", "scheme"} {
			if seen[f] {
				stray = append(stray, "-"+f)
			}
		}
		if len(stray) > 0 {
			mode := "-sweep"
			if o.compare {
				mode = "-compare"
			}
			return fmt.Errorf("%s set with %s (single-run fault flags are ignored by sweeps)", strings.Join(stray, ", "), mode)
		}
	}
	if err := o.validateReliable(seen); err != nil {
		return err
	}
	return o.validateAdaptive(seen)
}

// validateReliable rejects nonsense reliability settings upfront: a
// reliability flag set without -reliable is a mistake the run would
// silently ignore, and a schedule the run horizon can never exercise is
// a mistake the run would silently report as perfect delivery.
func (o *options) validateReliable(seen map[string]bool) error {
	var stray []string
	for _, f := range []string{"timeout", "retries", "jitter", "maxtimeout", "outage"} {
		if seen[f] && !o.reliableOn {
			stray = append(stray, "-"+f)
		}
	}
	if len(stray) > 0 {
		return fmt.Errorf("%s set without -reliable", strings.Join(stray, ", "))
	}
	if !o.reliableOn {
		return nil
	}
	if o.rtoBase < 0 {
		return fmt.Errorf("-timeout %d is negative", o.rtoBase)
	}
	if o.jitter < -1 {
		return fmt.Errorf("-jitter %d is negative (use -1 for the default)", o.jitter)
	}
	if o.outage < 0 {
		return fmt.Errorf("-outage %d is negative", o.outage)
	}
	if o.outage > 0 && o.sweepRates == "" {
		return fmt.Errorf("-outage only applies to a reliability sweep (add -sweep)")
	}
	if o.outage > 0 && o.adaptiveOn {
		return fmt.Errorf("-outage and -adaptive are mutually exclusive (the adaptive sweep measures permanent faults)")
	}
	cfg := o.reliableConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if horizon := o.warmup + o.cycles; cfg.Timeout >= horizon {
		return fmt.Errorf("-timeout %d never fires within the %d-cycle run", cfg.Timeout, horizon)
	}
	return nil
}

// validateAdaptive rejects adaptive tuning without -adaptive and
// combinations the adaptive mode would silently override.
func (o *options) validateAdaptive(seen map[string]bool) error {
	var stray []string
	for _, f := range []string{"threshold", "probe", "maxdetours", "epoch"} {
		if seen[f] && !o.adaptiveOn {
			stray = append(stray, "-"+f)
		}
	}
	if len(stray) > 0 {
		return fmt.Errorf("%s set without -adaptive", strings.Join(stray, ", "))
	}
	if !o.adaptiveOn {
		return nil
	}
	if seen["policy"] {
		return fmt.Errorf("-policy is ignored under -adaptive (the router replaces the static policy)")
	}
	if o.threshold < 0 {
		return fmt.Errorf("-threshold %d is negative", o.threshold)
	}
	if o.probeIval < 0 {
		return fmt.Errorf("-probe %d is negative", o.probeIval)
	}
	if o.maxDetours < 0 {
		return fmt.Errorf("-maxdetours %d is negative", o.maxDetours)
	}
	if o.epoch < -1 {
		return fmt.Errorf("-epoch %d is negative (use -1 for the default, 0 to disable)", o.epoch)
	}
	return nil
}

// reliableConfig builds the transport schedule from the flags, filling
// auto values from DefaultConfig for the chosen dimension.
func (o *options) reliableConfig() reliable.Config {
	c := reliable.DefaultConfig(o.dim)
	c.Seed = o.seed + 505
	c.MaxRetries = o.retries
	c.MaxTimeout = o.maxRTO
	if o.rtoBase > 0 {
		c.Timeout = o.rtoBase
	}
	if o.jitter >= 0 {
		c.Jitter = o.jitter
	}
	return c
}

// adaptiveConfig builds the router tuning from the flags, filling auto
// values from adaptive.DefaultConfig for the chosen dimension.
func (o *options) adaptiveConfig() adaptive.Config {
	c := adaptive.DefaultConfig(o.dim)
	c.Seed = o.seed + 606
	if o.threshold > 0 {
		c.Threshold = o.threshold
	}
	if o.probeIval > 0 {
		c.ProbeInterval = o.probeIval
	}
	if o.maxDetours > 0 {
		c.MaxDetours = o.maxDetours
	}
	if o.epoch >= 0 {
		c.Epoch = o.epoch
	}
	return c
}

func (o *options) baseParams() routing.Params {
	pol, err := parsePolicy(o.policy)
	if err != nil {
		fatal(err)
	}
	return routing.Params{
		N: o.dim, Lambda: o.lambda, Warmup: o.warmup, Cycles: o.cycles,
		Seed: o.seed, BufferLimit: o.buffers,
		Policy: pol, TTL: o.ttl,
	}
}

func usageError(set *flag.FlagSet, err error) {
	fmt.Fprintln(os.Stderr, "bffault:", err)
	set.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bffault:", err)
	os.Exit(1)
}

func parsePolicy(s string) (routing.Policy, error) {
	switch s {
	case "misroute":
		return routing.Misroute, nil
	case "drop", "dropdead":
		return routing.DropDead, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want misroute or drop)", s)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q in list", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q in list", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	set := flag.NewFlagSet("bffault", flag.ExitOnError)
	o := newOptions(set)
	set.Parse(os.Args[1:])
	if err := o.validate(); err != nil {
		usageError(set, err)
	}
	if o.sweepRates == "" && !o.compare {
		runOnce(o)
		return
	}
	if err := report(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// findScheme returns the named packaging scheme for the current dimension.
func findScheme(o *options) faults.Scheme {
	schemes, err := faults.StandardSchemes(o.dim)
	if err != nil {
		fatal(err)
	}
	for _, sc := range schemes {
		if sc.Name == o.scheme {
			return sc
		}
	}
	fatal(fmt.Errorf("unknown scheme %q", o.scheme))
	panic("unreachable")
}

func runOnce(o *options) {
	plan, err := faults.NewPlan(o.dim)
	if err != nil {
		fatal(err)
	}
	horizon := o.warmup + o.cycles
	if o.linkRate > 0 {
		if _, err := plan.AddRandomLinkFaults(o.linkRate, o.seed+101); err != nil {
			fatal(err)
		}
	}
	if o.nodeRate > 0 {
		if _, err := plan.AddRandomNodeFaults(o.nodeRate, o.seed+202); err != nil {
			fatal(err)
		}
	}
	if o.transient > 0 {
		if err := plan.AddRandomTransientLinkFaults(o.transient, horizon, o.repair, o.seed+303); err != nil {
			fatal(err)
		}
	}
	deadModuleNodes := 0
	if o.killModules > 0 {
		sc := findScheme(o)
		if o.killModules > sc.NumModules {
			fatal(fmt.Errorf("-killmodules %d exceeds the %d %s modules", o.killModules, sc.NumModules, sc.Name))
		}
		for _, m := range faults.PickModules(sc.NumModules, o.killModules, o.seed+404) {
			killed, err := plan.AddModuleFault(sc.ModuleOf, m, 0, 0)
			if err != nil {
				fatal(err)
			}
			deadModuleNodes += killed
		}
	}
	p := o.baseParams()
	p.Faults = plan
	if p.TTL == 0 && plan.NumEvents() > 0 {
		p.TTL = faults.DefaultTTL(o.dim)
	}
	var rt *adaptive.Router
	if o.adaptiveOn {
		rt, err = adaptive.New(o.adaptiveConfig())
		if err != nil {
			fatal(err)
		}
		p.Adaptive = rt
	}
	var tr *reliable.Transport
	if o.reliableOn {
		tr, err = reliable.New(o.reliableConfig())
		if err != nil {
			fatal(err)
		}
		tr.MeasureFrom = o.warmup
		p.Reliable = tr
	}
	r, err := routing.Simulate(p)
	if err != nil {
		fatal(err)
	}
	plan.BeginCycle(0)
	router := "policy " + o.policy
	if o.adaptiveOn {
		router = "adaptive router"
	}
	fmt.Printf("B_%d wrapped, lambda=%.4f, %s, ttl=%d, %d fault events:\n",
		o.dim, o.lambda, router, p.TTL, plan.NumEvents())
	fmt.Printf("  at cycle 0:   %d dead nodes, %d dead links (of %d / %d)\n",
		plan.DeadNodes(), plan.DeadLinks(), plan.Nodes(), 2*plan.Nodes())
	if deadModuleNodes > 0 {
		fmt.Printf("  module kill:  %d modules of the %s scheme (%d nodes)\n",
			o.killModules, o.scheme, deadModuleNodes)
	}
	fmt.Printf("  throughput:   %.4f pkts/node/cycle (%.1f%% of offered)\n",
		r.Throughput, 100*r.Throughput/o.lambda)
	fmt.Printf("  avg latency:  %.2f cycles (avg hops %.2f)\n", r.AvgLatency, r.AvgHops)
	if tr != nil {
		cfg := tr.Config()
		s := tr.Stats()
		fmt.Printf("  reliability:  timeout %d, retries %d, jitter %d\n",
			cfg.Timeout, cfg.MaxRetries, cfg.Jitter)
		fmt.Printf("  accounting:   %d injected + %d retransmitted = %d delivered + %d duplicates + %d dropped + %d gave up + %d unreachable + %d backlog\n",
			r.TotalInjected, r.Retransmitted, r.TotalDelivered, r.DuplicatesDropped,
			r.Dropped, r.GaveUp, r.Unreachable, r.Backlog)
		fmt.Printf("  payloads:     %d registered = %d accepted + %d abandoned + %d pending\n",
			s.Registered, s.Accepted, s.Abandoned, s.Pending)
		fmt.Printf("  delivery lat: avg %.2f, p99 %.0f, max %d cycles (%d samples)\n",
			s.AvgLatency, tr.LatencyPercentile(0.99), s.MaxLatency, s.LatencySamples)
	} else {
		fmt.Printf("  accounting:   %d injected = %d delivered + %d dropped + %d unreachable + %d backlog\n",
			r.TotalInjected, r.TotalDelivered, r.Dropped, r.Unreachable, r.Backlog)
	}
	if rt != nil {
		s := rt.Stats()
		fmt.Printf("  detection:    %d breakers opened, %d re-closed, %d probes (%d alive), %d epochs, %d open at end\n",
			s.Opened, s.Reclosed, s.Probes, s.ProbesAlive, s.Epochs, s.OpenAtEnd)
		fmt.Printf("  rerouting:    %d detours, %d queue re-plans\n", r.Detours, r.Reroutes)
		fmt.Printf("  unreachable:  %d dead dest + %d cut dest + %d detected by epoch map\n",
			r.UnreachableDead, r.UnreachableCut, r.UnreachableDetected)
	} else {
		fmt.Printf("  misroutes:    %d (stalls %d)\n", r.Misroutes, r.Stalls)
	}
	if err := r.CheckConservation(); err != nil {
		fatal(err)
	}
}

// column is one field of a sweep report: its header in the aligned
// table and in CSV ("" leaves it out of that format), and how each
// format prints a cell.
type column struct {
	head, csvHead string
	table, csv    func(c *adaptive.Cell) string
}

// col prints v with the same verb in both formats.
func col(head, csvHead, verb string, v func(c *adaptive.Cell) any) column {
	f := func(c *adaptive.Cell) string { return fmt.Sprintf(verb, v(c)) }
	return column{head, csvHead, f, f}
}

// pct prints a fraction as a percentage in the table and raw in CSV.
func pct(head, csvHead string, v func(c *adaptive.Cell) float64) column {
	return column{head, csvHead,
		func(c *adaptive.Cell) string { return fmt.Sprintf("%.1f%%", 100*v(c)) },
		func(c *adaptive.Cell) string { return fmt.Sprintf("%.4f", v(c)) }}
}

// csvOnly leaves a column out of the aligned table.
func csvOnly(c column) column {
	c.head = ""
	return c
}

// report runs the sweep (-sweep) or packaging comparison (-compare) the
// flags select - plain, with the -reliable retransmission modes (E22), or
// with the -adaptive recovery ladder (E23) - and writes it to w as an
// aligned table or CSV. The plain family attaches no transport. Every
// cell is conservation-checked by the sweep; any failure aborts before a
// row is written.
func report(o *options, w io.Writer) error {
	cells, err := sweep(o)
	if err != nil {
		return err
	}
	cols, footer := layout(o)
	return write(w, o.csv, cols, footer, cells)
}

// sweep runs the cells of the selected family.
func sweep(o *options) ([]adaptive.Cell, error) {
	base := o.baseParams()
	modes := []adaptive.Mode{{Name: o.policy, Policy: base.Policy}}
	switch {
	case o.adaptiveOn:
		modes = adaptive.StandardModes()
	case o.reliableOn:
		modes = adaptive.ReliableModes()
	}
	var cells []adaptive.Cell
	if o.compare {
		schemes, err := faults.StandardSchemes(o.dim)
		if err != nil {
			return nil, err
		}
		kills, err := parseInts(o.kills)
		if err != nil {
			return nil, err
		}
		cells = adaptive.ModuleKillSweep(base, o.adaptiveConfig(), o.reliableConfig(), modes, schemes, kills)
	} else {
		rates, err := parseFloats(o.sweepRates)
		if err != nil {
			return nil, err
		}
		cells = adaptive.Sweep(base, o.adaptiveConfig(), o.reliableConfig(), modes, rates, o.outage)
	}
	for i := range cells {
		if cells[i].Err != nil {
			return nil, cells[i].Err
		}
	}
	return cells, nil
}

// layout returns the selected family's columns and the note printed
// under its table.
func layout(o *options) (cols []column, footer string) {
	var (
		mode       = col("mode", "mode", "%s", func(c *adaptive.Cell) any { return c.Mode })
		scheme     = col("scheme", "scheme", "%s", func(c *adaptive.Cell) any { return c.Scheme })
		rate       = col("rate", "rate", "%g", func(c *adaptive.Cell) any { return c.Rate })
		deadLinks  = col("dead", "dead_links", "%d", func(c *adaptive.Cell) any { return c.DeadLinks })
		outages    = col("outages", "outages", "%d", func(c *adaptive.Cell) any { return c.Outages })
		killed     = col("killed", "killed", "%d", func(c *adaptive.Cell) any { return c.Killed })
		deadNodes  = col("dead nodes", "dead_nodes", "%d", func(c *adaptive.Cell) any { return c.DeadNodes })
		deadFrac   = pct("dead frac", "dead_frac", func(c *adaptive.Cell) float64 { return c.DeadNodeFrac })
		throughput = col("throughput", "throughput", "%.4f", func(c *adaptive.Cell) any { return c.Result.Throughput })
		goodput    = col("goodput", "goodput", "%.4f", func(c *adaptive.Cell) any { return c.Goodput })
		efficiency = column{"efficiency", "efficiency",
			func(c *adaptive.Cell) string { return fmt.Sprintf("%.1f%%", 100*c.Goodput/o.lambda) },
			func(c *adaptive.Cell) string { return fmt.Sprintf("%.4f", c.Goodput/o.lambda) }}
		latency = column{"latency", "latency",
			func(c *adaptive.Cell) string { return fmt.Sprintf("%.1f", c.Result.AvgLatency) },
			func(c *adaptive.Cell) string { return fmt.Sprintf("%.2f", c.Result.AvgLatency) }}
		dropped   = col("dropped", "dropped", "%d", func(c *adaptive.Cell) any { return c.Result.Dropped })
		unreach   = col("unreach", "unreachable", "%d", func(c *adaptive.Cell) any { return c.Result.Unreachable })
		misroutes = col("misroutes", "misroutes", "%d", func(c *adaptive.Cell) any { return c.Result.Misroutes })
		backlog   = col("backlog", "backlog", "%d", func(c *adaptive.Cell) any { return c.Result.Backlog })
		p99       = col("p99 lat", "p99_latency", "%.0f", func(c *adaptive.Cell) any { return c.P99Latency })
		retx      = col("retx", "retransmitted", "%d", func(c *adaptive.Cell) any { return c.Result.Retransmitted })
		overhead  = pct("overhead", "overhead", func(c *adaptive.Cell) float64 { return c.Overhead })
		dups      = col("dups", "duplicates", "%d", func(c *adaptive.Cell) any { return c.Result.DuplicatesDropped })
		gaveUp    = col("gaveup", "gaveup", "%d", func(c *adaptive.Cell) any { return c.Result.GaveUp })
		abandoned = col("abandoned", "abandoned", "%d", func(c *adaptive.Cell) any { return c.Payloads.Abandoned })
		pending   = col("pending", "pending", "%d", func(c *adaptive.Cell) any { return c.Payloads.Pending })
		detours   = col("detours", "detours", "%d", func(c *adaptive.Cell) any { return c.Result.Detours })
		replans   = col("replans", "reroutes", "%d", func(c *adaptive.Cell) any { return c.Result.Reroutes })
		detected  = col("detected", "unreachable_detected", "%d", func(c *adaptive.Cell) any { return c.Result.UnreachableDetected })
		breakers  = col("breakers", "opened", "%d", func(c *adaptive.Cell) any { return c.Router.Opened })
		reclosed  = col("reclosed", "reclosed", "%d", func(c *adaptive.Cell) any { return c.Router.Reclosed })
	)
	switch {
	case o.adaptiveOn && o.compare:
		cols = []column{mode, scheme, killed, deadNodes, csvOnly(deadFrac), goodput, detours, replans, detected, overhead, breakers}
		footer = "(E23: same seeded module draw per kill count, shared across schemes and modes)"
	case o.adaptiveOn:
		cols = []column{mode, rate, deadLinks, goodput, efficiency, detours, replans, detected, overhead, breakers, csvOnly(reclosed)}
		footer = "(adaptive detours change the physical path each wrap-around pass - the recovery retries alone cannot buy)"
	case o.reliableOn && o.compare:
		cols = []column{mode, scheme, killed, deadNodes, csvOnly(deadFrac), goodput, p99, retx, overhead, dups, abandoned}
		footer = "(same seeded module draw per kill count, shared across schemes and modes)"
	case o.reliableOn:
		cols = []column{mode, rate, deadLinks, outages, goodput, efficiency, p99, retx, overhead, dups, gaveUp, csvOnly(abandoned), csvOnly(pending)}
		if o.outage == 0 {
			footer = "(permanent faults: deterministic retries retrace the same path, so retx modes mostly pay overhead; add -outage for the repairable regime, or -adaptive for routes that change)"
		}
	case o.compare:
		cols = []column{scheme, killed, deadNodes, deadFrac, throughput, latency, dropped, unreach, backlog}
		footer = "(same seeded module draw per kill count; schemes differ only in what a module is)"
	default:
		cols = []column{rate, deadLinks, throughput, efficiency, latency, dropped, unreach, misroutes, backlog}
	}
	return cols, footer
}

// write prints cells under the columns' headers: comma-separated for
// CSV, otherwise as an aligned table followed by footer.
func write(w io.Writer, csv bool, cols []column, footer string, cells []adaptive.Cell) error {
	var heads []string
	var cellFmt []func(c *adaptive.Cell) string
	for _, c := range cols {
		head, f := c.head, c.table
		if csv {
			head, f = c.csvHead, c.csv
		}
		if head != "" {
			heads = append(heads, head)
			cellFmt = append(cellFmt, f)
		}
	}
	sep, out := ",", w
	var tw *tabwriter.Writer
	if !csv {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		sep, out = "\t", tw
	}
	fmt.Fprintln(out, strings.Join(heads, sep))
	row := make([]string, len(cellFmt))
	for i := range cells {
		for j, f := range cellFmt {
			row[j] = f(&cells[i])
		}
		fmt.Fprintln(out, strings.Join(row, sep))
	}
	if csv {
		return nil
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if footer != "" {
		fmt.Fprintln(w, footer)
	}
	return nil
}
