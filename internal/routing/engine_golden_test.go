package routing_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

var updateDigests = flag.Bool("update", false, "rewrite the committed engine digests")

// engineRow is one configuration of the digest matrix. build returns
// fresh Params (with fresh hooks) on every call, so the two runs of a
// row share no state, plus a function rendering the hooks' own Stats
// once the run is over.
type engineRow struct {
	name    string
	pattern routing.Pattern
	build   func() (routing.Params, func() string)
}

// TestEngineGoldenDigests pins the simulator's exact behaviour in both
// modes - unbounded FIFOs and finite buffers with dateline virtual
// channels - under every hook stack. Each row runs twice (same seed,
// same bytes: this also guards against use of the global math/rand
// source, whose consumption between runs would make them diverge), and
// the SHA-256 of its %#v Result, hook Stats and trace bytes must match
// the committed digest. A change to phase order, to where queue heads
// expire, or to when the next hop is routed moves Reroutes, Detours or
// trace bytes under some row. Regenerate deliberately with
// `go test ./internal/routing -run TestEngineGoldenDigests -update`.
//
// The rows run once more at forced shard counts 2 and 4 (at most one
// row a shard) against the same committed digests: the parallel step
// must reproduce the serial engine's bytes. Rows with a transport or an
// adaptive router keep one shard, so they only repeat there.
func TestEngineGoldenDigests(t *testing.T) {
	rows := engineRows(t)
	got := make(map[string]string, len(rows))
	for _, r := range rows {
		d1, d2 := runDigest(t, r), runDigest(t, r)
		if d1 != d2 {
			t.Errorf("%s: same seed, different digests %s and %s", r.name, d1, d2)
		}
		got[r.name] = d1
	}
	path := filepath.Join("testdata", "engine_digests.txt")
	if !*updateDigests {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
				routing.ForceShards(t, shards)
				for _, r := range rows {
					if d := runDigest(t, r); d != got[r.name] {
						t.Errorf("%s: %d shards give digest %s, one shard %s", r.name, shards, d, got[r.name])
					}
				}
			})
		}
	}
	if *updateDigests {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("engine digests missing (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	if len(want) != len(rows) {
		t.Errorf("committed file has %d digests, the matrix has %d rows", len(want), len(rows))
	}
	for _, r := range rows {
		if w, ok := want[r.name]; !ok {
			t.Errorf("%s: no committed digest", r.name)
		} else if got[r.name] != w {
			t.Errorf("%s: digest %s, committed %s", r.name, got[r.name], w)
		}
	}
}

// runDigest runs one fresh build of r to completion and hashes its %#v
// Result, the hook stats, and the trace bytes.
func runDigest(t *testing.T, r engineRow) string {
	t.Helper()
	p, hookStats := r.build()
	var trace bytes.Buffer
	p.Trace = &trace
	res, err := routing.SimulatePattern(p, r.pattern)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n%s", *res, hookStats())
	h.Write(trace.Bytes())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hookStack selects the optional Params hooks of one matrix row.
type hookStack struct {
	moduleOf, faults, ttl, reliable, adaptive bool
	policy                                    routing.Policy
}

// engineRows builds the matrix - mode x hook stack x pattern x seed
// (seed 1 at n=4, seed 2 at n=5) - plus four fixed determinism
// configurations.
func engineRows(t *testing.T) []engineRow {
	modes := []struct {
		name    string
		buffers int
	}{{"plain", 0}, {"vc2", 2}, {"vc4", 4}}
	stacks := []struct {
		name string
		h    hookStack
	}{
		{"bare", hookStack{}},
		{"moduleof", hookStack{moduleOf: true}},
		{"faults-misroute", hookStack{faults: true}},
		{"faults-dropdead", hookStack{faults: true, policy: routing.DropDead}},
		{"faults-ttl", hookStack{faults: true, ttl: true}},
		{"faults-reliable", hookStack{faults: true, reliable: true}},
		{"faults-adaptive", hookStack{faults: true, adaptive: true}},
		{"faults-reliable-adaptive-ttl", hookStack{faults: true, reliable: true, adaptive: true, ttl: true}},
	}
	var rows []engineRow
	for _, m := range modes {
		for _, st := range stacks {
			for _, pat := range []routing.Pattern{routing.Uniform, routing.Shuffle} {
				for _, seed := range []int64{1, 2} {
					buffers, h, seed := m.buffers, st.h, seed
					rows = append(rows, engineRow{
						name:    fmt.Sprintf("%s/%s/%s/seed%d", m.name, st.name, pat, seed),
						pattern: pat,
						build: func() (routing.Params, func() string) {
							return stackParams(t, 3+int(seed), seed, buffers, h)
						},
					})
				}
			}
		}
	}
	// The fixed determinism configurations: n=4 with module crossings
	// measured, bare and with a node plus a cross link dead until cycle
	// 120 under a TTL, in both modes.
	for _, cfg := range []struct {
		name    string
		faulted bool
		buffers int
	}{
		{"determinism/plain", false, 0},
		{"determinism/faulted", true, 0},
		{"determinism/vc", false, 2},
		{"determinism/vc-faulted", true, 2},
	} {
		cfg := cfg
		rows = append(rows, engineRow{
			name: cfg.name,
			build: func() (routing.Params, func() string) {
				const n = 4
				p := routing.Params{
					N: n, Lambda: 0.12, Warmup: 40, Cycles: 300, Seed: 99,
					ModuleOf: rowBlockModules(n), BufferLimit: cfg.buffers,
				}
				if cfg.faulted {
					fp := faults.MustPlan(n)
					mustOK(t, fp.AddNodeFault(7, 0, 120))
					mustOK(t, fp.AddLinkFault(1<<n+2, 1, 0, 120))
					p.Faults = fp
					p.TTL = 64
				}
				return p, func() string { return "" }
			},
		})
	}
	return rows
}

// stackParams builds the Params of one matrix row at dimension n: a
// load near saturation so finite buffers stall and refuse injections,
// with the selected hooks attached fresh.
func stackParams(t *testing.T, n int, seed int64, buffers int, h hookStack) (routing.Params, func() string) {
	p := routing.Params{
		N: n, Lambda: 0.25, Warmup: 30, Cycles: 120, Seed: seed,
		BufferLimit: buffers, Policy: h.policy,
	}
	if h.moduleOf {
		p.ModuleOf = rowBlockModules(n)
	}
	if h.faults {
		p.Faults = mixedFaultPlan(t, n, seed)
	}
	if h.ttl {
		p.TTL = 4 * n
	}
	var tr *reliable.Transport
	if h.reliable {
		tr = reliable.MustNew(reliable.Config{Timeout: 4 * n, MaxRetries: 2, Jitter: 2, Seed: seed})
		p.Reliable = tr
	}
	var ad *adaptive.Router
	if h.adaptive {
		var err error
		ad, err = adaptive.New(adaptive.DefaultConfig(n))
		mustOK(t, err)
		p.Adaptive = ad
	}
	return p, func() string {
		var b strings.Builder
		if tr != nil {
			fmt.Fprintf(&b, "%#v\n", tr.Stats())
		}
		if ad != nil {
			fmt.Fprintf(&b, "%#v\n", ad.Stats())
		}
		return b.String()
	}
}

// rowBlockModules packs every column's rows into modules of four
// consecutive rows: straight links stay inside a module, cross links
// on the low two columns do too, the rest cross a boundary.
func rowBlockModules(n int) []int {
	rows := 1 << n
	m := make([]int, n*rows)
	for node := range m {
		m[node] = (node % rows) / 4
	}
	return m
}

// mixedFaultPlan kills a few links for good, schedules transient link
// faults over the whole run, and takes one node down for a while: enough
// for misroutes, drops, stalls, unreachable refusals, breaker trips and
// re-plans to all occur.
func mixedFaultPlan(t *testing.T, n int, seed int64) *faults.Plan {
	fp := faults.MustPlan(n)
	_, err := fp.AddRandomLinkFaults(0.04, seed)
	mustOK(t, err)
	mustOK(t, fp.AddRandomTransientLinkFaults(2*n, 150, 25, seed+100))
	mustOK(t, fp.AddNodeFault(5, 40, 50))
	return fp
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
