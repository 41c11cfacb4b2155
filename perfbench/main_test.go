package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"bfvlsi/internal/sweepfarm"
)

// tinyOptions runs a workload at test size for a very short timed phase.
func tinyOptions(t *testing.T, workload string, seed int64, trace int) *options {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	return &options{workload: workload, seed: seed, seconds: 0.05, trace: trace, tiny: true}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to its required shape and
// to the metrics and workloads this program emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", keys, want)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Paths, []string{"perfbench"}) || !reflect.DeepEqual(def.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("command %q paths %q", def.Command, def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", def.RunSeconds)
	}
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames())
	}
	if n := len(def.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	check := func(kind string, specs []metricSpec, defs []metricDef, bounded bool) {
		t.Helper()
		var got []metricDef
		for _, m := range specs {
			got = append(got, metricDef{m.Name, m.Unit})
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q unit %q: malformed", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bad bound", kind, m.Name)
			}
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("%s metrics %v, the program emits %v", kind, got, defs)
		}
	}
	check("end-to-end", def.EndToEnd, e2eMetrics, true)
	check("per-layer", def.PerLayer, layerMetrics, false)
	if s := def.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower", s)
	}
	for _, m := range def.EndToEnd {
		if *m.Bound > *def.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestWorkloads runs every workload at test size: an untraced run emits
// every end-to-end metric and a traced run every per-layer metric, each
// with its unit; the same seed gives the same outputs digest, traced or
// not, and another seed another digest.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[int64][]string{}
			for _, c := range []struct {
				seed  int64
				trace int
				defs  []metricDef
			}{{1, 0, e2eMetrics}, {1, 1, layerMetrics}, {2, 0, e2eMetrics}} {
				o := tinyOptions(t, w.name, c.seed, c.trace)
				if c.trace == 1 {
					o.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				rec, err := measureRun(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("seed %d trace %d: correct %v, %d of %d failed", c.seed, c.trace, rec.Correct, rec.Failed, rec.Attempted)
				}
				if len(rec.Metrics) != len(c.defs) {
					t.Errorf("trace %d: %d metrics, want %d", c.trace, len(rec.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := rec.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace %d: metric %s = %+v, want a finite value in %s", c.trace, d.name, m, d.unit)
					}
					if c.trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if o.traceOut != "" {
					checkSpans(t, o.traceOut)
				}
				digests[c.seed] = append(digests[c.seed], rec.OutputsSHA256)
			}
			if d := digests[1]; d[0] != d[1] {
				t.Errorf("seed 1 gave digests %s and %s", d[0], d[1])
			}
			if digests[1][0] == digests[2][0] {
				t.Errorf("seeds 1 and 2 gave the same digest %s", digests[1][0])
			}
		})
	}
}

// checkSpans requires the written trace to hold client, server and
// replay spans, each ending after it starts.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		switch {
		case s.Name == "client" || s.Name == "serve":
			kinds[s.Name] = true
		case s.Parent == "replay":
			kinds["replay"] = true
		}
	}
	if !kinds["client"] || !kinds["serve"] || !kinds["replay"] {
		t.Errorf("trace holds span kinds %v, want client, serve and replay", kinds)
	}
}

// TestCacheOutcomes: route-cold never hits the cache; design-hot both
// hits and evicts.
func TestCacheOutcomes(t *testing.T) {
	for _, c := range []struct {
		workload string
		wantHits bool
	}{{"route-cold", false}, {"design-hot", true}} {
		o := tinyOptions(t, c.workload, 1, 0)
		s, err := findWorkload(c.workload).setup(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ph := s.measure(time.Now().Add(50 * time.Millisecond))
		st, err := s.harness().statsz(0)
		s.close()
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != 0 {
			t.Fatalf("%s: %v", c.workload, ph.errs)
		}
		var hits int64
		for _, ep := range st.Endpoints {
			hits += ep.Hits
		}
		if (hits > 0) != c.wantHits || (c.wantHits && st.CacheEvictions == 0) {
			t.Errorf("%s: %d hits, %d evictions", c.workload, hits, st.CacheEvictions)
		}
	}
}

// TestFarmReportMatchesSerialFarm: the coordinator's merged report is
// byte-identical to a serial sweepfarm.Run over the same spec.
func TestFarmReportMatchesSerialFarm(t *testing.T) {
	o := tinyOptions(t, "farm-whatif", 1, 0)
	s, err := setupFarmWhatif(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	fs := s.(*farmSession)
	if ph := fs.measure(time.Now()); ph.failed != 0 {
		t.Fatal(ph.errs)
	}
	serial, err := sweepfarm.Run(fs.spec0, sweepfarm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.rep0.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the dispatched report differs from the serial farm's")
	}
}

// corruptFirstDigit changes the first digit of every successful answer,
// leaving it valid JSON.
func corruptFirstDigit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.IndexAny(body, "0123456789"); i >= 0 && rec.Code == http.StatusOK {
			body[i] = '0' + (body[i]-'0'+1)%10
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// TestCorruptedAnswersFailTheRun mutation-tests the output checks: one
// changed byte per answer must make every workload's run fail.
func TestCorruptedAnswersFailTheRun(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t, w.name, 1, 0)
		o.wrap = corruptFirstDigit
		var stdout, stderr bytes.Buffer
		if code := run(o, &stdout, &stderr); code == 0 {
			t.Errorf("%s: a run over corrupted answers exited 0:\n%s", w.name, stdout.String())
		}
	}
}

// TestGoldenDigest: a run whose digest differs from the committed one
// for its workload and seed fails; seeds without one pass.
func TestGoldenDigest(t *testing.T) {
	const seed1 = "270926a0b68af38a62f8ae57cf33364548f1a973ee0c2dff20e7523c60315282"
	for _, c := range []struct {
		seed   int64
		digest string
		ok     bool
	}{{1, seed1, true}, {1, strings.Repeat("0", 64), false}, {99, "anything", true}} {
		err := checkGolden("route-cold", &options{seed: c.seed}, c.digest)
		if (err == nil) != c.ok {
			t.Errorf("seed %d digest %.8s: error %v, want ok=%v", c.seed, c.digest, err, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(range(1, 11), n=4)
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 4], n=4)
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
		// statistics.quantiles([3, 5], n=4)
		{[]float64{3, 5}, [3]float64{2.5, 4, 5.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	ten := func(a, b float64) ([]float64, []float64, [][2]float64) {
		var as, bs []float64
		var pairs [][2]float64
		for i := 0; i < 10; i++ {
			d := float64(i%3) * 0.1
			as, bs = append(as, a+d), append(bs, b+d)
			pairs = append(pairs, [2]float64{a + d, b + d})
		}
		return as, bs, pairs
	}
	a10, b10, pairs := ten(100, 95)
	for _, c := range []struct {
		name   string
		a, b   []float64
		pairs  [][2]float64
		better string
		bound  *float64
		want   string
	}{
		{"within", steady, steady, nil, "lower", &bound, "within"},
		{"worse", steady, []float64{120, 121, 119, 120, 120, 121}, nil, "lower", &bound, "worse"},
		{"higher is better", steady, []float64{120, 121, 119, 120, 120, 121}, nil, "higher", &bound, "within"},
		{"unresolved", steady, []float64{60, 140, 100, 80, 120, 100}, nil, "lower", &bound, "unresolved"},
		{"every run better", []float64{100, 150, 125, 130}, []float64{60, 70, 65, 50}, nil, "lower", &bound, "better"},
		{"ten pairs won", a10, b10, pairs, "lower", &bound, "better"},
		{"no bound", steady, steady, nil, "lower", nil, "-"},
	} {
		if got := verdict(c.a, c.b, c.pairs, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFailsOnDigestMismatch: two runs of one workload and seed
// must agree on their outputs digest.
func TestCompareFailsOnDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string) string {
		path := filepath.Join(dir, name)
		rec := &record{Workload: "route-cold", Seed: 1, OutputsSHA256: digest,
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"p50_ms": {1, "ms"}}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.jsonl", "aa"), write("b.jsonl", "aa"), write("c.jsonl", "bb")
	for _, tc := range []struct {
		other string
		want  int
	}{{b, 0}, {c, 1}} {
		o := &options{compare: true, bench: "../BENCHMARK.json", args: []string{a, tc.other}}
		var out bytes.Buffer
		if got := compareFiles(o, &out, io.Discard); got != tc.want {
			t.Errorf("compare against %s exited %d, want %d:\n%s", tc.other, got, tc.want, out.String())
		}
	}
}

func TestParseOptions(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"--workload", "route-cold", "--seed", "4", "--seconds", "10", "--trace", "0"}, true},
		{[]string{"--workload", "sim-large", "--trace", "1", "--trace-out", "x.json"}, true},
		{[]string{"-compare", "a", "b"}, true},
		{[]string{"-compare", "a"}, false},
		{[]string{"--workload", "nope"}, false},
		{[]string{"--workload", "route-cold", "--trace", "2"}, false},
		{[]string{"--workload", "route-cold", "--seconds", "0"}, false},
		{[]string{"--workload", "route-cold", "--trace-out", "x.json"}, false},
		{[]string{"--workload", "route-cold", "extra"}, false},
	} {
		_, err := parseOptions(c.args)
		if (err == nil) != c.ok {
			t.Errorf("parseOptions(%q) error %v, want ok=%v", c.args, err, c.ok)
		}
	}
}
