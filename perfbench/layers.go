package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bfvlsi/internal/isn"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/serve"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/sweepfarm"
	"bfvlsi/internal/thompson"
	"bfvlsi/internal/wire"
)

// probeRepeats is how many times each fixed probe input runs.
const probeRepeats = 5

// layerTimes collects the per-layer samples of the replay that follows
// the timed phase, outside it so it cannot perturb it.
type layerTimes struct {
	tr      *tracer
	samples map[string][]float64
	calls   int64
}

func newLayerTimes(tr *tracer) *layerTimes {
	return &layerTimes{tr: tr, samples: map[string][]float64{}}
}

func (l *layerTimes) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// timed runs f as one call of the layer metric name and records its
// duration in the unit the name's suffix gives (_ns, _us or _ms).
func (l *layerTimes) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	if err != nil {
		return err
	}
	var scale float64
	switch {
	case strings.HasSuffix(name, "_ns"):
		scale = 1
	case strings.HasSuffix(name, "_us"):
		scale = 1e3
	case strings.HasSuffix(name, "_ms"):
		scale = 1e6
	default:
		panic("layer metric " + name + " names no time unit")
	}
	l.add(name, float64(d.Nanoseconds())/scale)
	l.span(name, start, d)
	return nil
}

// span records one replayed layer call when the run is traced.
func (l *layerTimes) span(name string, start time.Time, d time.Duration) {
	if l.tr == nil {
		return
	}
	l.calls++
	l.tr.add(span{Name: name, Parent: "replay", ID: l.calls, Start: l.tr.since(start), End: l.tr.since(start.Add(d))})
}

// replayRoute recomputes a /v1/route answer through the layers the
// handler calls - the wire encoding, the fault-plan build and the
// simulator's NewSim, Step and Finish - timing each.
func replayRoute(lt *layerTimes, rs *wire.RouteSpec) (*routing.Result, error) {
	if err := lt.timed("wire.spec_encode_ns", func() error {
		_, err := rs.MarshalBinary()
		return err
	}); err != nil {
		return nil, err
	}
	p := routing.Params{
		N: rs.N, Lambda: rs.Lambda, Warmup: rs.Warmup, Cycles: rs.Cycles, Seed: rs.Seed,
		BufferLimit: rs.BufferLimit, TTL: rs.TTL, Policy: rs.Policy,
	}
	if rs.Fault != nil && !rs.Fault.IsZero() {
		if err := lt.timed("wire.fault_build_us", func() error {
			plan, err := rs.Fault.Build()
			p.Faults = plan
			return err
		}); err != nil {
			return nil, err
		}
	}
	var sim *routing.Sim
	if err := lt.timed("routing.new_sim_us", func() (err error) {
		sim, err = routing.NewSim(p, rs.Pattern)
		return err
	}); err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for !sim.Done() {
		if err := sim.Step(); err != nil {
			return nil, err
		}
	}
	steps := time.Since(start)
	runtime.ReadMemStats(&after)
	cycles := rs.Warmup + rs.Cycles
	name := "routing.step_plain_ns_per_node_cycle"
	if rs.BufferLimit > 0 {
		name = "routing.step_vc_ns_per_node_cycle"
	}
	lt.add(name, float64(steps.Nanoseconds())/float64(cycles*rs.N<<rs.N))
	lt.add("routing.allocs_per_cycle", float64(after.Mallocs-before.Mallocs)/float64(cycles))
	lt.span(name, start, steps)

	var res *routing.Result
	if err := lt.timed("routing.finish_us", func() (err error) {
		res, err = sim.Finish()
		return err
	}); err != nil {
		return nil, err
	}
	if err := res.CheckConservation(); err != nil {
		return nil, err
	}
	return res, nil
}

// layoutMetric names the layer metric each layout family's build
// reports under.
var layoutMetric = map[wire.Family]string{
	wire.FamilyThompson:  "thompson.build_ms",
	wire.FamilyCollinear: "collinear.build_us",
	wire.FamilyHierarchy: "hierarchy.design_ms",
	wire.FamilyStack3D:   "stack3d.build_ms",
}

// replayLayout recomputes a /v1/layout answer with the wire build.
func replayLayout(lt *layerTimes, ls *wire.LayoutSpec) (*wire.LayoutResult, error) {
	if err := lt.timed("wire.spec_encode_ns", func() error {
		_, err := ls.MarshalBinary()
		return err
	}); err != nil {
		return nil, err
	}
	var res *wire.LayoutResult
	if err := lt.timed(layoutMetric[ls.Family], func() (err error) {
		res, err = ls.Build()
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// replayPackaging recomputes a /v1/packaging answer with the wire build,
// and times the ISN transform the row and nucleus variants start from
// on its own.
func replayPackaging(lt *layerTimes, ps *wire.PackagingSpec) (*wire.PackagingPlan, error) {
	if err := lt.timed("wire.spec_encode_ns", func() error {
		_, err := ps.MarshalBinary()
		return err
	}); err != nil {
		return nil, err
	}
	var plan *wire.PackagingPlan
	if err := lt.timed("packaging.build_us", func() (err error) {
		plan, err = ps.Build()
		return err
	}); err != nil {
		return nil, err
	}
	if ps.Variant != wire.VariantNaive {
		if err := lt.timed("isn.transform_us", func() error {
			_ = isn.Transform(thompson.SpecForDim(ps.N))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// replayFarm replays every k-th point of a finished sweep through the
// checkpoint, simulator and journal layers, and requires the merged
// report to hold the same result for each.
func replayFarm(lt *layerTimes, spec sweepfarm.Spec, rep *sweepfarm.Report, every int) error {
	if len(rep.Points) != len(spec.Points) {
		return fmt.Errorf("report has %d points, the sweep %d", len(rep.Points), len(spec.Points))
	}
	var warm *snapshot.Checkpoint
	if err := lt.timed("sweepfarm.warm_checkpoint_ms", func() (err error) {
		warm, err = sweepfarm.WarmCheckpoint(spec)
		return err
	}); err != nil {
		return err
	}
	restored, err := warm.Restore(nil)
	if err != nil {
		return err
	}
	var captured *snapshot.Checkpoint
	if err := lt.timed("snapshot.capture_us", func() error {
		captured = restored.Checkpoint()
		return nil
	}); err != nil {
		return err
	}
	var ck []byte
	if err := lt.timed("snapshot.marshal_us", func() (err error) {
		ck, err = captured.MarshalBinary()
		return err
	}); err != nil {
		return err
	}
	lt.add("snapshot.bytes", float64(len(ck)))
	var dec snapshot.Checkpoint
	if err := lt.timed("snapshot.unmarshal_us", func() error { return dec.UnmarshalBinary(ck) }); err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) // scratch journal only
	j, _, err := sweepfarm.OpenJournal(filepath.Join(dir, "replay.journal"))
	if err != nil {
		return err
	}
	defer j.Close() // a second close after the checked one below is harmless

	route := spec.Base.Route
	nodeCycles := float64(route.N<<route.N) * float64(route.Warmup+route.Cycles-spec.ForkCycle)
	for i := 0; i < len(spec.Points); i += every {
		pt := spec.Points[i]
		var run *snapshot.Run
		if err := lt.timed("snapshot.fork_us", func() (err error) {
			run, err = dec.Fork(pt, nil)
			return err
		}); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		start := time.Now()
		res, err := run.Finish()
		finish := time.Since(start)
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		lt.add("routing.step_hooked_ns_per_node_cycle", float64(finish.Nanoseconds())/nodeCycles)
		lt.span("routing.step_hooked", start, finish)

		p := sweepfarm.Point{Index: i, Result: res}
		want, err := (&sweepfarm.Report{Points: []sweepfarm.Point{p}}).Encode()
		if err != nil {
			return err
		}
		got, err := (&sweepfarm.Report{Points: rep.Points[i : i+1]}).Encode()
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("point %d: the merged report differs from the checkpoint replay", i)
		}
		if err := lt.timed("sweepfarm.journal_append_us", func() error { return j.Append(p) }); err != nil {
			return err
		}
	}
	if err := lt.timed("sweepfarm.merge_ms", func() error {
		_, _, err := sweepfarm.MergePoints(rep.Points)
		return err
	}); err != nil {
		return err
	}
	return j.Close()
}

// hitOverhead measures the serve layer's own cost - decoding, validating,
// canonically encoding and hashing the request, the LRU lookup and the
// write - as the first server's handler time for answering each request
// from the cache. It calls the handler directly: once to fill the cache,
// then probeRepeats times.
func hitOverhead(lt *layerTimes, h *harness, reqs []request) error {
	handler := h.servers[0].Config.Handler
	for _, r := range reqs {
		for k := 0; k <= probeRepeats; k++ {
			rec := httptest.NewRecorder()
			start := time.Now()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
			d := time.Since(start)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("POST %s answered %d: %s", r.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			if k == 0 {
				continue
			}
			if c := rec.Header().Get(cacheHeader); c != "hit" {
				return fmt.Errorf("POST %s repeated answered %s %q, want a cache hit", r.path, cacheHeader, c)
			}
			lt.add("serve.overhead_us", float64(d.Nanoseconds())/1e3)
			lt.span("serve.hit", start, d)
		}
	}
	return nil
}

// probeMissingLayers measures, on fixed small inputs, every layer metric
// the workload's own replay left without samples, so that a traced run
// reports every per-layer metric: the route probe for workloads without
// both simulator modes, the layout and packaging probe for all but
// design-hot, and a small sweep through its own two workers for all but
// farm-whatif.
func probeMissingLayers(lt *layerTimes, o *options) error {
	probe := newLayerTimes(lt.tr)
	n := 6
	if o.tiny {
		n = 4
	}
	routes := []*wire.RouteSpec{
		{N: n, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 1},
		{N: n, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 1, BufferLimit: 4},
		{N: n, Lambda: 0.1, Warmup: 50, Cycles: 200, Seed: 1, BufferLimit: 4, TTL: 8 * n,
			Fault: &wire.FaultSpec{N: n, LinkRate: 0.02, Seed: 1}},
	}
	layouts := []*wire.LayoutSpec{
		{Family: wire.FamilyThompson, Widths: []int{2, 2, 2}},
		{Family: wire.FamilyCollinear, N: 32},
		{Family: wire.FamilyHierarchy, N: 9, MaxPins: 64, ChipSide: 20},
		{Family: wire.FamilyStack3D, Widths: []int{2, 2, 2, 2}, SliceLayers: 2},
	}
	for r := 0; r < probeRepeats; r++ {
		for _, rs := range routes {
			if _, err := replayRoute(probe, rs); err != nil {
				return err
			}
		}
		for _, ls := range layouts {
			if _, err := replayLayout(probe, ls); err != nil {
				return err
			}
		}
		if _, err := replayPackaging(probe, &wire.PackagingSpec{N: 9, Variant: wire.VariantNucleus}); err != nil {
			return err
		}
	}

	if len(lt.samples["dispatch.call_p50_ms"]) == 0 {
		h := newHarness(o, newTracer(), 2, serve.Config{})
		fs, err := newFarmSession(h, o.seed, true, 1)
		if err != nil {
			return err
		}
		defer fs.close()
		h.begin()
		ph := fs.measure(time.Now())
		h.end(ph)
		if ph.failed > 0 {
			return fmt.Errorf("probe sweep: %v", ph.errs[0])
		}
		addDispatchMetrics(probe, ph, len(h.servers))
		if err := replayFarm(probe, fs.spec0, fs.rep0, 1); err != nil {
			return err
		}
	}

	for name, s := range probe.samples {
		if len(lt.samples[name]) == 0 {
			lt.samples[name] = s
		}
	}
	return nil
}

// addDispatchMetrics derives the coordinator's metrics from a traced
// sweep phase: the median call latency, and the workers' busy share -
// traced handler time, scaled by the share of calls traced, over wall
// time times workers.
func addDispatchMetrics(lt *layerTimes, ph *phase, workers int) {
	lt.add("dispatch.call_p50_ms", percentile(ph.lat, 0.5)*1e3)
	var busy time.Duration
	traced := 0
	for _, s := range ph.spans {
		if s.Name == "serve" {
			busy += s.dur()
			traced++
		}
	}
	if traced > 0 {
		lt.add("dispatch.worker_busy_frac",
			busy.Seconds()*float64(len(ph.lat))/float64(traced)/(ph.elapsed.Seconds()*float64(workers)))
	}
}

// layerValues derives the serve metrics from the timed phase's spans and
// reports every per-layer metric as the median of its samples.
func layerValues(lt *layerTimes, ph *phase) (map[string]metric, error) {
	client := map[int64]span{}
	for _, s := range ph.spans {
		if s.Name == "client" {
			client[s.ID] = s
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range ph.spans {
		if s.Name != "serve" {
			continue
		}
		lt.add("serve.handler_p50_us", us(s.dur()))
		if c, ok := client[s.ID]; ok {
			lt.add("serve.transport_us", us(c.dur()-s.dur()))
		}
	}
	if total := ph.hits + ph.misses; total > 0 {
		lt.add("serve.cache_miss_ratio", float64(ph.misses)/float64(total))
	}
	var traced, untraced []latency
	for _, l := range ph.lat {
		if l.traced {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		lt.add("trace_overhead_pct", (percentile(traced, 0.5)/percentile(untraced, 0.5)-1)*100)
	}
	// Peak RSS moves with garbage-collector timing by more than 10% from
	// run to run, too much for an end-to-end bound.
	lt.add("peak_rss_mb", peakRSSMB())

	out := make(map[string]metric, len(layerMetrics))
	for _, def := range layerMetrics {
		s := lt.samples[def.name]
		if len(s) == 0 {
			return nil, fmt.Errorf("layer metric %s has no samples", def.name)
		}
		out[def.name] = metric{median(s), def.unit}
	}
	return out, nil
}
