package sweepfarm

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/wire"
)

// Grid is the sweep shape bfsweep and bffarm share as command-line
// flags: the base run, the fault rate × fault seed grid and the fork
// cycle. Both commands build their Spec and print their table through
// it, so a local and a distributed sweep over the same flags run the
// same points and print the same bytes.
type Grid struct {
	Dim        int
	Lambda     float64
	Warmup     int
	Cycles     int
	Seed       int64
	Buffers    int
	TTL        int
	Reliable   bool
	Adaptive   bool
	Rates      string
	FaultSeeds string
	Control    bool
	Fork       int

	// rateList and seedList are Rates and FaultSeeds parsed by Validate.
	rateList []float64
	seedList []int64
}

// RegisterFlags registers the sweep-shape flags on set.
func (g *Grid) RegisterFlags(set *flag.FlagSet) {
	set.IntVar(&g.Dim, "n", 6, "butterfly dimension")
	set.Float64Var(&g.Lambda, "lambda", 0.1, "per-node injection probability")
	set.IntVar(&g.Warmup, "warmup", 200, "warmup cycles")
	set.IntVar(&g.Cycles, "cycles", 600, "measured cycles")
	set.Int64Var(&g.Seed, "seed", 1, "traffic seed")
	set.IntVar(&g.Buffers, "buffers", 4, "per-link buffer limit (0 = unbounded)")
	set.IntVar(&g.TTL, "ttl", 0, "packet TTL (0 = default for faulted runs)")
	set.BoolVar(&g.Reliable, "reliable", false, "layer the reliable transport over every run")
	set.BoolVar(&g.Adaptive, "adaptive", false, "use the adaptive fault-aware router")
	set.StringVar(&g.Rates, "rates", "0.01,0.02,0.05", "comma-separated link fault rates")
	set.StringVar(&g.FaultSeeds, "faultseeds", "1,2,3", "comma-separated fault-plan seeds")
	set.BoolVar(&g.Control, "control", true, "include a fault-free control point")
	set.IntVar(&g.Fork, "fork", -1, "fork cycle for the warmed-up checkpoint (-1 = end of warmup)")
}

// Validate audits the flag ranges and parses the list-valued flags.
func (g *Grid) Validate() error {
	if g.Dim < 1 || g.Dim > 14 {
		return fmt.Errorf("-n %d out of range [1,14]", g.Dim)
	}
	if g.Lambda <= 0 || g.Lambda > 1 {
		return fmt.Errorf("-lambda %v outside (0,1]", g.Lambda)
	}
	if g.Warmup < 0 || g.Cycles <= 0 {
		return fmt.Errorf("-warmup %d / -cycles %d invalid", g.Warmup, g.Cycles)
	}
	if g.Buffers < 0 || g.TTL < 0 {
		return fmt.Errorf("-buffers %d / -ttl %d negative", g.Buffers, g.TTL)
	}
	if g.Fork < -1 || g.Fork > g.Warmup+g.Cycles {
		return fmt.Errorf("-fork %d outside [0,%d]", g.Fork, g.Warmup+g.Cycles)
	}
	var err error
	if g.rateList, err = parseList(g.Rates, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	for _, r := range g.rateList {
		if r <= 0 || r >= 1 {
			return fmt.Errorf("-rates: rate %v outside (0,1)", r)
		}
	}
	if g.seedList, err = parseList(g.FaultSeeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }); err != nil {
		return fmt.Errorf("-faultseeds: %w", err)
	}
	if len(g.rateList)*len(g.seedList) == 0 && !g.Control {
		return fmt.Errorf("no sweep points: empty -rates or -faultseeds and -control=false")
	}
	return nil
}

// parseList splits a comma-separated flag value, skipping blank items.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// Spec assembles the farm spec of a validated grid: the fault-free
// control first (with Control), then one point per rate and fault
// seed, rates outermost.
func (g *Grid) Spec() Spec {
	base := snapshot.Spec{
		Route: wire.RouteSpec{
			N: g.Dim, Lambda: g.Lambda, Warmup: g.Warmup, Cycles: g.Cycles,
			Seed: g.Seed, BufferLimit: g.Buffers, TTL: g.TTL,
		},
	}
	if g.Reliable {
		base.Reliable = &snapshot.ReliableSpec{
			Timeout: 4 * g.Dim, MaxRetries: 5, Jitter: 3, Seed: g.Seed + 1,
			MeasureFrom: g.Warmup,
		}
	}
	if g.Adaptive {
		base.Adaptive = &snapshot.AdaptiveSpec{Seed: g.Seed + 2}
	}
	fork := g.Fork
	if fork < 0 {
		fork = g.Warmup
	}
	var points []*wire.FaultSpec
	if g.Control {
		points = append(points, nil)
	}
	for _, rate := range g.rateList {
		for _, seed := range g.seedList {
			points = append(points, &wire.FaultSpec{N: g.Dim, LinkRate: rate, Seed: seed})
		}
	}
	return Spec{Base: base, ForkCycle: fork, Points: points}
}

// WriteTable writes the report as one table row per point, labelled
// with the fault rate and seed of its entry in points (the Points of
// the spec the report ran) or "control" for the fault-free point.
func (r *Report) WriteTable(w io.Writer, points []*wire.FaultSpec) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "point\trate\tseed\tthroughput\tdelivered\tdropped\tunreachable\tretransmit\tgaveup\n")
	for _, p := range r.Points {
		scenario, seed := "control", "-"
		if pt := points[p.Index]; pt != nil {
			scenario = fmt.Sprintf("%.4f", pt.LinkRate)
			seed = strconv.FormatInt(pt.Seed, 10)
		}
		res := p.Result
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.4f\t%d\t%d\t%d\t%d\t%d\n",
			p.Index, scenario, seed, res.Throughput, res.Delivered, res.Dropped,
			res.Unreachable, res.Retransmitted, res.GaveUp)
	}
	return tw.Flush()
}
