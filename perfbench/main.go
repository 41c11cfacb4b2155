// Command perfbench is the repository's benchmark. It drives bfserve
// in-process over real loopback HTTP (serve.New(...).Handler() behind
// httptest), the bffarm coordinator (dispatch.Run) against in-process
// bfserve workers, and the layers beneath them through their public
// functions only. One invocation runs one workload in its own process,
// checks every output, and prints every metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":812,"failed":0,"metrics":{"p50_ms":{"value":14.2,"unit":"ms"},...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md for both tables).
//
// Usage:
//
//	perfbench --workload route-cold --seed 1 --seconds 10 --trace 0
//	perfbench --workload farm-whatif --trace 1 --trace-out spans.json
//	perfbench --workload design-hot --seed 3 -o runs.jsonl
//	perfbench -compare parent.jsonl change.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload's set-up;
// setup_s is the median, and the last set-up serves the timed phase.
const setupRepeats = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports, and
// layerMetrics the per-layer metrics every traced run reports, each in
// BENCHMARK.json's order; a test holds the lists and that file equal.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

var layerMetrics = []metricDef{
	{"serve.handler_p50_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.cache_miss_ratio", "ratio"},
	{"trace_overhead_pct", "%"},
	{"routing.step_plain_ns_per_node_cycle", "ns"},
	{"routing.step_vc_ns_per_node_cycle", "ns"},
	{"routing.step_hooked_ns_per_node_cycle", "ns"},
	{"routing.allocs_per_cycle", "count"},
	{"routing.new_sim_us", "us"},
	{"routing.finish_us", "us"},
	{"wire.spec_encode_ns", "ns"},
	{"wire.fault_build_us", "us"},
	{"thompson.build_ms", "ms"},
	{"collinear.build_us", "us"},
	{"hierarchy.design_ms", "ms"},
	{"stack3d.build_ms", "ms"},
	{"isn.transform_us", "us"},
	{"packaging.build_us", "us"},
	{"snapshot.capture_us", "us"},
	{"snapshot.marshal_us", "us"},
	{"snapshot.unmarshal_us", "us"},
	{"snapshot.fork_us", "us"},
	{"snapshot.bytes", "bytes"},
	{"sweepfarm.warm_checkpoint_ms", "ms"},
	{"sweepfarm.journal_append_us", "us"},
	{"sweepfarm.merge_ms", "ms"},
	{"dispatch.call_p50_ms", "ms"},
	{"dispatch.worker_busy_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// options carries every flag value. Parsing is pure, so the tests drive
// the same code with argv lists.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	compare  bool
	bench    string
	args     []string

	// Test seams: tiny shrinks every workload to test size, and wrap,
	// when set, wraps every in-process server's handler.
	tiny bool
	wrap func(http.Handler) http.Handler
}

func parseOptions(args []string) (*options, error) {
	set := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	set.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	set.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	set.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	set.IntVar(&o.trace, "trace", 0, "0 reports the end-to-end metrics, 1 traces the run and reports the per-layer metrics")
	set.StringVar(&o.out, "o", "", "append the run's record (metrics, digest, machine) as one JSON line to this file")
	set.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the recorded spans to this file as JSON")
	set.BoolVar(&o.compare, "compare", false, "compare two files of run records: -compare A.jsonl B.jsonl")
	set.StringVar(&o.bench, "bench", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := set.Parse(args); err != nil {
		return nil, err
	}
	o.args = set.Args()
	if o.compare {
		if len(o.args) != 2 {
			return nil, fmt.Errorf("-compare takes two record files, got %d arguments", len(o.args))
		}
		return o, nil
	}
	if len(o.args) != 0 {
		return nil, fmt.Errorf("unexpected arguments %q", o.args)
	}
	if findWorkload(o.workload) == nil {
		return nil, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.seconds > 600 {
		return nil, fmt.Errorf("--seconds %v outside (0,600]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	if o.traceOut != "" && o.trace != 1 {
		return nil, fmt.Errorf("--trace-out needs --trace 1")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -o appends it and -compare reads it.
type record struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         int     `json:"trace"`
	Seconds       float64 `json:"seconds"`
	Machine       machine `json:"machine"`
	OutputsSHA256 string  `json:"outputs_sha256"`
	result
}

// run executes one workload and returns the process exit code.
func run(o *options, stdout, stderr io.Writer) int {
	rec, err := measureRun(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "outputs_sha256 %s\n", rec.OutputsSHA256)
	if o.out != "" {
		rec.Machine = currentMachine()
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// measureRun sets the workload up, runs its timed phase, verifies its
// outputs and assembles the metrics. An error means the run could not
// measure at all; failed outputs are counted in the record instead.
func measureRun(o *options, stderr io.Writer) (*record, error) {
	w := findWorkload(o.workload)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	var setups []float64
	var sess session
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		s, err := w.setup(o, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			s.close()
		} else {
			sess = s
		}
	}
	defer sess.close()

	h := sess.harness()
	h.begin()
	ph := sess.measure(time.Now().Add(time.Duration(o.seconds * float64(time.Second))))
	h.end(ph)
	failed := ph.failed
	for _, err := range ph.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
	}

	lt := newLayerTimes(tr)
	digest, err := sess.verify(lt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
		failed++
	}
	if err == nil {
		if err := checkGolden(w.name, o, digest); err != nil {
			fmt.Fprintln(stderr, "perfbench: FAIL:", err)
			failed++
		}
	}

	rec := &record{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		OutputsSHA256: digest,
		result:        result{Attempted: ph.attempted, Failed: failed},
	}
	if tr == nil {
		rec.Metrics = e2eValues(w, setups, ph)
	} else {
		if ph.dispatch {
			addDispatchMetrics(lt, ph, len(h.servers))
		}
		reqs, err := sess.hitSample()
		if err == nil {
			err = hitOverhead(lt, h, reqs)
		}
		if err != nil {
			return nil, fmt.Errorf("%s cache-hit probe: %w", w.name, err)
		}
		if err := probeMissingLayers(lt, o); err != nil {
			return nil, fmt.Errorf("%s layer probes: %w", w.name, err)
		}
		rec.Metrics, err = layerValues(lt, ph)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// e2eValues assembles the end-to-end metrics of an untraced run.
func e2eValues(w *workload, setups []float64, ph *phase) map[string]metric {
	return map[string]metric{
		"setup_s":   {median(setups), "s"},
		"ops_per_s": {float64(ph.ops) / ph.elapsed.Seconds(), "1/s"},
		"p50_ms":    {percentile(ph.lat, 0.50) * 1e3, "ms"},
		"tail_ms":   {percentile(ph.lat, w.tail) * 1e3, "ms"},
	}
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares a run's digest with the committed one for its
// workload and seed, when golden.json holds one: a change that only
// makes the program faster leaves every output byte-identical.
func checkGolden(name string, o *options, digest string) error {
	if o.tiny {
		return nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[name][strconv.FormatInt(o.seed, 10)]
	if !ok || want == digest {
		return nil
	}
	return fmt.Errorf("outputs_sha256 %s differs from the committed digest %s for seed %d", digest, want, o.seed)
}

// appendRecord appends one JSON line to path.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.compare {
		os.Exit(compareFiles(o, os.Stdout, os.Stderr))
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}
