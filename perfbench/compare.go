package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json that -compare reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric of BENCHMARK.json. Per-layer metrics carry
// no bound.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readRecords reads a file of run records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default 'exclusive' method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// verdict judges change B against parent A on one metric. Given at
// least ten pairs, B is better when it wins nine tenths of them and the
// medians differ by more than A's interquartile range. B is worse when
// its median is worse than A's by more than the bound, and unresolved
// when either side's spread exceeds the bound, unless every run of B
// beats every run of A. Without a bound (per-layer metrics) only the
// pair rule applies.
func verdict(a, b []float64, pairs [][2]float64, better string, bound *float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	sign := 1.0 // positive differences are worse
	if better == "higher" {
		sign = -1
	}
	if len(pairs) >= 10 {
		wins := 0
		for _, p := range pairs {
			if sign*(p[1]-p[0]) < 0 {
				wins++
			}
		}
		if wins*10 >= 9*len(pairs) && math.Abs(bm-am) > a3-a1 {
			return "better"
		}
	}
	if bound == nil {
		return "-"
	}
	if rel(sign*(bm-am), am) > *bound {
		return "worse"
	}
	if rel(a3-a1, am) > *bound || rel(b3-b1, bm) > *bound {
		if bWorst, aBest := worstOf(b, sign), worstOf(a, -sign); sign*(bWorst-aBest) < 0 {
			return "better"
		}
		return "unresolved"
	}
	return "within"
}

// worstOf returns the worst value of xs when sign > 0 means larger is
// worse; with the sign flipped, the best.
func worstOf(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if sign*(x-w) > 0 {
			w = x
		}
	}
	return w
}

// rel is d as a share of base.
func rel(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(base)
}

// compareFiles prints, per workload and metric, both sides' median and
// quartiles, the median delta and the verdict. It fails on a "worse"
// verdict and on any outputs digest that differs between runs of one
// workload and seed, and warns when the machine records differ.
func compareFiles(o *options, stdout, stderr io.Writer) int {
	def, err := readBenchDef(o.bench)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var sides [2][]record
	for i, path := range o.args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if len(sides[i]) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s holds no records\n", path)
			return 2
		}
	}
	failed := false
	machines := map[machine]bool{}
	digests := map[string]string{}
	for _, side := range sides {
		for _, r := range side {
			machines[withoutRevision(r.Machine)] = true
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if prev, ok := digests[key]; ok && prev != r.OutputsSHA256 {
				fmt.Fprintf(stdout, "DIGEST MISMATCH %s: %s vs %s\n", key, prev, r.OutputsSHA256)
				failed = true
			}
			digests[key] = r.OutputsSHA256
			if !r.Correct {
				fmt.Fprintf(stdout, "INCORRECT RUN %s (%d of %d failed)\n", key, r.Failed, r.Attempted)
				failed = true
			}
		}
	}
	if len(machines) > 1 {
		fmt.Fprintln(stderr, "perfbench: warning: the records come from different machines:")
		for m := range machines {
			fmt.Fprintf(stderr, "  %+v\n", m)
		}
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tverdict")
	specs := append(append([]metricSpec(nil), def.EndToEnd...), def.PerLayer...)
	for _, wl := range def.Workloads {
		for _, ms := range specs {
			var vals [2][]float64
			bySeed := [2]map[int64]float64{{}, {}}
			for i, side := range sides {
				for _, r := range side {
					m, ok := r.Metrics[ms.Name]
					if r.Workload != wl.Name || !ok {
						continue
					}
					vals[i] = append(vals[i], m.Value)
					bySeed[i][r.Seed] = m.Value
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			var pairs [][2]float64
			for seed, va := range bySeed[0] {
				if vb, ok := bySeed[1][seed]; ok {
					pairs = append(pairs, [2]float64{va, vb})
				}
			}
			v := verdict(vals[0], vals[1], pairs, ms.Better, ms.Bound)
			if v == "worse" {
				failed = true
			}
			a1, am, a3 := quartiles(vals[0])
			b1, bm, b3 := quartiles(vals[1])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.2f%%\t%s\n",
				wl.Name, ms.Name, ms.Unit, am, a1, a3, len(vals[0]), bm, b1, b3, len(vals[1]),
				rel(bm-am, am)*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// withoutRevision drops the VCS revision, which differs between the two
// sides of every comparison by design.
func withoutRevision(m machine) machine {
	m.Revision = ""
	return m
}
