package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bfvlsi/internal/dispatch"
	"bfvlsi/internal/grid"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/serve"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/sweepfarm"
	"bfvlsi/internal/wire"
)

// workload is one named set of generated inputs. Every input derives from
// --seed; the program under test sees only the generated requests. All
// loops are closed, because bfserve's callers (the CLIs and the bffarm
// coordinator) each wait for their reply, and no workload runs more
// clients than the recording machine's two cores.
type workload struct {
	name string
	// tail is the latency percentile tail_ms reports. It keeps at least
	// ten samples beyond it in a 20 s run on the recording machine, and
	// lies inside one cluster of the workload's latency distribution so
	// that it does not flip between clusters from run to run: route-cold's
	// p95 is among the n=8 VC requests, design-hot's p90 among the cache
	// hits (the ~3% misses are heterogeneous builds), farm-whatif's p95
	// among the what-if calls, sim-large's p75 among the VC requests.
	tail  float64
	setup func(o *options, tr *tracer) (session, error)
}

var workloads = []*workload{
	{name: "route-cold", tail: 0.95, setup: setupRouteCold},
	{name: "design-hot", tail: 0.90, setup: setupDesignHot},
	{name: "farm-whatif", tail: 0.95, setup: setupFarmWhatif},
	{name: "sim-large", tail: 0.75, setup: setupSimLarge},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// ---- route-cold and sim-large: streams of distinct /v1/route specs ----

// routeColdPatterns gives 60% uniform traffic and 10% each adversary.
var routeColdPatterns = [10]routing.Pattern{
	routing.Uniform, routing.Uniform, routing.Uniform, routing.Uniform, routing.Uniform, routing.Uniform,
	routing.BitReverse, routing.Transpose, routing.Complement, routing.Shuffle,
}

// routeColdSpec is request i of route-cold: 80% n=6 and 20% n=8, half
// plain and half bufferLimit 4, and 10% carrying a 2% link-fault plan
// with a TTL. The mix is a function of i alone, so every seed gets the
// same amount of work; the seed moves the simulations, the loads and the
// fault plans. Every spec is distinct, so the cache never hits.
func routeColdSpec(seed int64, i int, tiny bool) *wire.RouteSpec {
	r := mix(seed, i)
	n, warmup, cycles := 6, 100, 300
	if i%5 == 4 {
		n = 8
	}
	if tiny {
		n, warmup, cycles = n-3, 10, 40
	}
	rs := &wire.RouteSpec{
		N: n, Lambda: 0.05 + 0.01*float64(r%8), Warmup: warmup, Cycles: cycles,
		Seed: seed<<32 + int64(i), Pattern: routeColdPatterns[i/10%10],
	}
	if i%2 == 1 {
		rs.BufferLimit = 4
	}
	// The decimal digit sum picks exactly one request in every aligned
	// ten, at a position that shifts from one ten to the next.
	digits := 0
	for k := i; k > 0; k /= 10 {
		digits += k % 10
	}
	if digits%10 == 0 {
		rs.TTL = 8 * n
		rs.Fault = &wire.FaultSpec{N: n, LinkRate: 0.02, Seed: int64(r >> 32)}
	}
	return rs
}

// simLargeSpec is request i of sim-large: n=10, two plain requests to
// every bufferLimit-4 one, with two requests in every twelve carrying a
// 1% link-fault plan. The 2:1 mix keeps the median and the p90 latency
// inside one mode's cluster each, away from the boundary between them.
func simLargeSpec(seed int64, i int, tiny bool) *wire.RouteSpec {
	n, warmup, cycles := 10, 50, 200
	if tiny {
		n, warmup, cycles = 5, 20, 60
	}
	rs := &wire.RouteSpec{
		N: n, Lambda: 0.1, Warmup: warmup, Cycles: cycles,
		Seed: seed<<32 + int64(i), Pattern: routing.Uniform,
	}
	if i%3 == 2 {
		rs.BufferLimit = 4
	}
	if i%12 == 4 || i%12 == 11 {
		rs.TTL = 8 * n
		rs.Fault = &wire.FaultSpec{N: n, LinkRate: 0.01, Seed: int64(mix(seed, i) >> 32)}
	}
	return rs
}

type routeSession struct {
	h       *harness
	clients int
	minOps  int // requests the digest covers
	every   int // replay every k-th request
	spec    func(i int) *wire.RouteSpec

	mu      sync.Mutex
	answers map[int][]byte // guarded by mu
}

func setupRouteCold(o *options, tr *tracer) (session, error) {
	s := &routeSession{
		h: newHarness(o, tr, 1, serve.Config{}), clients: 2, minOps: 32, every: 16,
		spec: func(i int) *wire.RouteSpec { return routeColdSpec(o.seed, i, o.tiny) },
	}
	// Warm the connections and the code paths with two plain and two VC
	// n=8 requests, at indices the timed phase never reaches (all are
	// 4 mod 5).
	return s, s.warmUp(1<<30, 1<<30+5, 1<<30+10, 1<<30+15)
}

func setupSimLarge(o *options, tr *tracer) (session, error) {
	s := &routeSession{
		h: newHarness(o, tr, 1, serve.Config{}), clients: 1, minOps: 4, every: 8,
		spec: func(i int) *wire.RouteSpec { return simLargeSpec(o.seed, i, o.tiny) },
	}
	// One plain request, at an index the timed phase never reaches.
	return s, s.warmUp(1 << 30)
}

func (s *routeSession) warmUp(indices ...int) error {
	for _, i := range indices {
		if _, err := s.h.post(s.h.servers[0].URL+"/v1/route", routeBody(s.spec(i))); err != nil {
			s.close()
			return err
		}
	}
	return nil
}

func (s *routeSession) harness() *harness { return s.h }
func (s *routeSession) close()            { s.h.close() }

func (s *routeSession) measure(deadline time.Time) *phase {
	s.answers = make(map[int][]byte)
	return s.h.drive(s.clients, s.minOps, deadline,
		func(i int) (string, []byte) { return "/v1/route", routeBody(s.spec(i)) },
		func(i int, answer []byte) error {
			s.mu.Lock()
			s.answers[i] = answer
			s.mu.Unlock()
			return nil
		})
}

// verify checks every answer's conservation identities, holds the
// fault-free uniform answers' mean hop count to routing.ExpectedHops,
// replays every k-th request through the simulator's public calls and
// requires byte-identical answers, and requires zero cache hits.
func (s *routeSession) verify(lt *layerTimes) (string, error) {
	hops := map[int]*[2]float64{} // n -> {sum of AvgHops*Delivered, sum of Delivered}
	for i := 0; i < len(s.answers); i++ {
		answer, ok := s.answers[i]
		if !ok {
			return "", fmt.Errorf("request %d has no answer", i)
		}
		var res routing.Result
		if err := json.Unmarshal(answer, &res); err != nil {
			return "", fmt.Errorf("request %d: %w", i, err)
		}
		if err := res.CheckConservation(); err != nil {
			return "", fmt.Errorf("request %d: %w", i, err)
		}
		rs := s.spec(i)
		if rs.Fault == nil && rs.Pattern == routing.Uniform {
			if hops[rs.N] == nil {
				hops[rs.N] = &[2]float64{}
			}
			hops[rs.N][0] += res.AvgHops * float64(res.Delivered)
			hops[rs.N][1] += float64(res.Delivered)
		}
		if i%s.every != 0 {
			continue
		}
		want, err := replayRoute(lt, rs)
		if err != nil {
			return "", fmt.Errorf("replaying request %d: %w", i, err)
		}
		wantBody, err := json.Marshal(want)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(answer, wantBody) {
			return "", fmt.Errorf("request %d: bfserve answered %s, the simulator replay gives %s", i, answer, wantBody)
		}
	}
	for n, h := range hops {
		// Only a large sample pins the mean hop count this tightly.
		if h[1] < 50000 {
			continue
		}
		if err := math.Abs(h[0]/h[1]/routing.ExpectedHops(n)-1) * 100; err >= 1 {
			return "", fmt.Errorf("n=%d: mean hops %.4f is %.2f%% off routing.ExpectedHops %.4f", n, h[0]/h[1], err, routing.ExpectedHops(n))
		}
	}
	st, err := s.h.statsz(0)
	if err != nil {
		return "", err
	}
	if hits := st.Endpoints["route"].Hits; hits != 0 {
		return "", fmt.Errorf("every route spec is distinct, yet the cache reports %d hits", hits)
	}
	d := sha256.New()
	for i := 0; i < s.minOps; i++ {
		d.Write(s.answers[i])
	}
	return hex.EncodeToString(d.Sum(nil)), nil
}

// hitSample returns the last few requests, which the cache still holds.
func (s *routeSession) hitSample() ([]request, error) {
	var out []request
	for i := max(0, len(s.answers)-4); i < len(s.answers); i++ {
		out = append(out, request{"/v1/route", routeBody(s.spec(i))})
	}
	return out, nil
}

// faultDoc is the fault recipe of a /v1/route or /v1/whatif request
// document, as far as the workloads use it.
type faultDoc struct {
	LinkRate float64 `json:"linkRate,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

func newFaultDoc(fs *wire.FaultSpec) *faultDoc {
	if fs == nil {
		return nil
	}
	return &faultDoc{LinkRate: fs.LinkRate, Seed: fs.Seed}
}

// routeBody renders a route spec as the /v1/route request document.
func routeBody(rs *wire.RouteSpec) []byte {
	return mustJSON(struct {
		N           int       `json:"n"`
		Lambda      float64   `json:"lambda"`
		Warmup      int       `json:"warmup,omitempty"`
		Cycles      int       `json:"cycles"`
		Seed        int64     `json:"seed,omitempty"`
		BufferLimit int       `json:"bufferLimit,omitempty"`
		TTL         int       `json:"ttl,omitempty"`
		Pattern     string    `json:"pattern,omitempty"`
		Fault       *faultDoc `json:"fault,omitempty"`
	}{rs.N, rs.Lambda, rs.Warmup, rs.Cycles, rs.Seed, rs.BufferLimit, rs.TTL, rs.Pattern.String(), newFaultDoc(rs.Fault)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, marshalable request documents reach here
	}
	return b
}

// ---- design-hot: Zipf-drawn design queries over a fixed catalogue ----

// entry is one catalogue spec, its request document, and the answer the
// pre-warm received for it, which every later answer must equal.
type entry struct {
	path   string
	body   []byte
	layout *wire.LayoutSpec
	pack   *wire.PackagingSpec
	route  *wire.RouteSpec
	answer []byte
}

// catalogue returns the design-hot specs, grouped by kind: layouts
// (thompson, collinear, hierarchy, stack3d), packagings, and tiny routes.
func catalogue(tiny bool) [3][]*entry {
	var kinds [3][]*entry
	addLayout := func(ls wire.LayoutSpec) {
		kinds[0] = append(kinds[0], &entry{path: "/v1/layout", layout: &ls, body: layoutBody(&ls)})
	}
	maxWidth, variants := 3, 4
	if tiny {
		maxWidth, variants = 2, 1
	}
	for _, w := range groupSpecs(maxWidth, 3) {
		for v := 0; v < variants; v++ {
			ls := wire.LayoutSpec{Family: wire.FamilyThompson, Widths: w}
			switch v {
			case 1:
				ls.NoTrackReorder = true
			case 2, 3:
				ls.Multilayer, ls.Layers = true, 2*v
			}
			addLayout(ls)
		}
	}
	for _, w := range groupSpecs(2, 4) {
		if len(w) != 4 {
			continue
		}
		for layers := 2; layers <= 4; layers++ {
			addLayout(wire.LayoutSpec{Family: wire.FamilyStack3D, Widths: w, SliceLayers: layers})
		}
	}
	maxN := 9
	if tiny {
		maxN = 5
	}
	for n := 4; n <= maxN; n++ {
		for _, pins := range []int{64, 128} {
			for _, side := range []int{0, 20} {
				addLayout(wire.LayoutSpec{Family: wire.FamilyHierarchy, N: n, MaxPins: pins, ChipSide: side})
			}
		}
	}
	for n := 4; n <= 68; n += 4 {
		if !tiny || n <= 16 {
			addLayout(wire.LayoutSpec{Family: wire.FamilyCollinear, N: n})
		}
	}

	maxDim := 12
	if tiny {
		maxDim = 6
	}
	for n := 2; n <= maxDim; n++ {
		for _, v := range []wire.Variant{wire.VariantRow, wire.VariantNucleus} {
			ps := wire.PackagingSpec{N: n, Variant: v}
			kinds[1] = append(kinds[1], &entry{path: "/v1/packaging", pack: &ps, body: packagingBody(&ps)})
		}
		for _, rows := range []int{1, 2, 4, 8, 16, 32, 64} {
			if n == 2 && rows > 8 {
				continue
			}
			ps := wire.PackagingSpec{N: n, Variant: wire.VariantNaive, RowsPerModule: rows}
			kinds[1] = append(kinds[1], &entry{path: "/v1/packaging", pack: &ps, body: packagingBody(&ps)})
		}
	}

	maxRoute := 6
	if tiny {
		maxRoute = 4
	}
	for n := 3; n <= maxRoute; n++ {
		for _, lambda := range []float64{0.05, 0.1, 0.15, 0.2} {
			for _, buf := range []int{0, 4} {
				for seed := int64(1); seed <= 2; seed++ {
					rs := wire.RouteSpec{N: n, Lambda: lambda, Warmup: 20, Cycles: 100, Seed: seed, BufferLimit: buf}
					kinds[2] = append(kinds[2], &entry{path: "/v1/route", route: &rs, body: routeBody(&rs)})
				}
			}
		}
	}
	return kinds
}

// groupSpecs lists the group specs of 1 to maxGroups widths whose later
// widths never exceed the first (the nucleus width), first width at most
// maxWidth.
func groupSpecs(maxWidth, maxGroups int) [][]int {
	var out [][]int
	var grow func(spec []int)
	grow = func(spec []int) {
		out = append(out, append([]int(nil), spec...))
		if len(spec) == maxGroups {
			return
		}
		for w := 1; w <= spec[0]; w++ {
			grow(append(spec, w))
		}
	}
	for w := 1; w <= maxWidth; w++ {
		grow([]int{w})
	}
	return out
}

func layoutBody(ls *wire.LayoutSpec) []byte {
	return mustJSON(struct {
		Family         string `json:"family"`
		N              int    `json:"n,omitempty"`
		Widths         []int  `json:"widths,omitempty"`
		Layers         int    `json:"layers,omitempty"`
		Multilayer     bool   `json:"multilayer,omitempty"`
		NoTrackReorder bool   `json:"noTrackReorder,omitempty"`
		SliceLayers    int    `json:"sliceLayers,omitempty"`
		MaxPins        int    `json:"maxPins,omitempty"`
		ChipSide       int    `json:"chipSide,omitempty"`
	}{ls.Family.String(), ls.N, ls.Widths, ls.Layers, ls.Multilayer, ls.NoTrackReorder, ls.SliceLayers, ls.MaxPins, ls.ChipSide})
}

func packagingBody(ps *wire.PackagingSpec) []byte {
	return mustJSON(struct {
		Variant       string `json:"variant"`
		N             int    `json:"n"`
		RowsPerModule int    `json:"rowsPerModule,omitempty"`
	}{ps.Variant.String(), ps.N, ps.RowsPerModule})
}

// designShare gives the request mix by i%10: 50% layout, 30% packaging,
// 20% route.
var designShare = [10]int{0, 0, 0, 0, 0, 1, 1, 1, 2, 2}

// zipfS is the Zipf exponent of the draw within each kind.
const zipfS = 1.2

// designRanking seeds the order in which each kind's entries take the
// Zipf ranks. It is fixed, not drawn from --seed: misses cost most of
// the server's work here, and a per-seed ranking would change which
// specs miss and so how much work a run does.
const designRanking = 1

type designSession struct {
	h       *harness
	seed    int64
	minOps  int
	entries [3][]*entry  // by kind, in rank order (hottest first)
	cdf     [3][]float64 // cumulative Zipf probability by rank
}

func setupDesignHot(o *options, tr *tracer) (session, error) {
	cfg := serve.Config{}
	if o.tiny {
		cfg.CacheEntries = 16 // so the tiny catalogue still evicts
	}
	s := &designSession{h: newHarness(o, tr, 1, cfg), seed: o.seed, minOps: 1024}
	rng := rand.New(rand.NewSource(designRanking))
	type warm struct {
		e    *entry
		heat float64
	}
	var order []warm
	for k, list := range catalogue(o.tiny) {
		share := 0.0
		for _, kind := range designShare {
			if kind == k {
				share += 0.1
			}
		}
		ranked := make([]*entry, len(list))
		for i, j := range rng.Perm(len(list)) {
			ranked[i] = list[j]
		}
		s.entries[k] = ranked
		total := 0.0
		for r := range ranked {
			total += math.Pow(float64(r+1), -zipfS)
		}
		acc := 0.0
		for r, e := range ranked {
			p := math.Pow(float64(r+1), -zipfS) / total
			acc += p
			s.cdf[k] = append(s.cdf[k], acc)
			order = append(order, warm{e, p * share})
		}
	}
	// Pre-warm coldest first, as a long-running daemon's cache would be:
	// the LRU ends up holding the hottest entries.
	sort.SliceStable(order, func(a, b int) bool { return order[a].heat < order[b].heat })
	for _, w := range order {
		answer, err := s.h.post(s.h.servers[0].URL+w.e.path, w.e.body)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
		w.e.answer = answer
	}
	return s, nil
}

// pick returns the catalogue entry of request i.
func (s *designSession) pick(i int) *entry {
	k := designShare[i%10]
	r := sort.SearchFloat64s(s.cdf[k], unit(mix(s.seed, i)))
	return s.entries[k][min(r, len(s.entries[k])-1)]
}

func (s *designSession) harness() *harness { return s.h }
func (s *designSession) close()            { s.h.close() }

// hitSample returns the first requests of the stream, hot entries.
func (s *designSession) hitSample() ([]request, error) {
	var out []request
	for i := 0; i < 8; i++ {
		e := s.pick(i)
		out = append(out, request{e.path, e.body})
	}
	return out, nil
}

// measure runs two closed-loop clients over the Zipf-drawn stream; every
// answer must equal its entry's pre-warm answer, hit or recomputed.
func (s *designSession) measure(deadline time.Time) *phase {
	return s.h.drive(2, s.minOps, deadline,
		func(i int) (string, []byte) { e := s.pick(i); return e.path, e.body },
		func(i int, answer []byte) error {
			if e := s.pick(i); !bytes.Equal(answer, e.answer) {
				return fmt.Errorf("%s %s: answer %s differs from the pre-warm answer %s", e.path, e.body, answer, e.answer)
			}
			return nil
		})
}

// verify replays every catalogue entry through the layer it queries and
// checks the pre-warm answer against it, and requires cache hits and
// evictions both to have happened.
func (s *designSession) verify(lt *layerTimes) (string, error) {
	for _, list := range s.entries {
		for _, e := range list {
			if err := replayEntry(lt, e); err != nil {
				return "", fmt.Errorf("%s %s: %w", e.path, e.body, err)
			}
		}
	}
	st, err := s.h.statsz(0)
	if err != nil {
		return "", err
	}
	var hits int64
	for _, ep := range st.Endpoints {
		hits += ep.Hits
	}
	if hits == 0 || st.CacheEvictions == 0 {
		return "", fmt.Errorf("the cache saw %d hits and %d evictions; the catalogue is built to produce both", hits, st.CacheEvictions)
	}
	d := sha256.New()
	for i := 0; i < s.minOps; i++ {
		d.Write(s.pick(i).answer)
	}
	return hex.EncodeToString(d.Sum(nil)), nil
}

// replayEntry recomputes one catalogue entry through its layer's public
// call and compares the result with the answer bfserve gave.
func replayEntry(lt *layerTimes, e *entry) error {
	switch {
	case e.layout != nil:
		res, err := replayLayout(lt, e.layout)
		if err != nil {
			return err
		}
		var got struct {
			Family string           `json:"family"`
			Stats  grid.Stats       `json:"stats"`
			Extras map[string]int64 `json:"extras"`
		}
		if err := json.Unmarshal(e.answer, &got); err != nil {
			return err
		}
		same := got.Family == res.Family.String() && got.Stats == res.Stats && len(got.Extras) == len(res.Extras)
		for _, x := range res.Extras {
			if v, ok := got.Extras[x.Name]; !ok || v != x.Value {
				same = false
			}
		}
		if !same {
			return fmt.Errorf("answer %s differs from the layout build %+v", e.answer, *res)
		}
	case e.pack != nil:
		plan, err := replayPackaging(lt, e.pack)
		if err != nil {
			return err
		}
		var got struct {
			Variant    string          `json:"variant"`
			Desc       string          `json:"desc"`
			NumModules int             `json:"numModules"`
			Stats      packaging.Stats `json:"stats"`
		}
		if err := json.Unmarshal(e.answer, &got); err != nil {
			return err
		}
		if got.Variant != e.pack.Variant.String() || got.Desc != plan.Desc || got.NumModules != plan.NumModules || got.Stats != plan.Stats {
			return fmt.Errorf("answer %s differs from the packaging build (%q, %d modules, %+v)", e.answer, plan.Desc, plan.NumModules, plan.Stats)
		}
	default:
		res, err := replayRoute(lt, e.route)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(e.answer, want) {
			return fmt.Errorf("answer %s differs from the simulator replay %s", e.answer, want)
		}
	}
	return nil
}

// ---- farm-whatif: bffarm sweeps against two in-process workers ----

// farmSpec is sweep j: base n=8 with bufferLimit 4 and the reliable and
// adaptive hooks, forked at cycle 200 for 100 continuation cycles, over
// 48 points - the fault-free control, link-fault scenarios at four
// rates, and one repeat of an earlier scenario in every twelve (8%, which
// the coordinator dedupes). Every sweep's base seed differs, so no
// what-if query repeats across sweeps and worker caches never hit.
func farmSpec(seed int64, j int, tiny bool) sweepfarm.Spec {
	n, fork, cont, points := 8, 200, 100, 48
	if tiny {
		n, fork, cont, points = 4, 20, 20, 12
	}
	s := seed<<16 + int64(j)
	base := snapshot.Spec{
		Route: wire.RouteSpec{N: n, Lambda: 0.1, Warmup: fork, Cycles: cont, Seed: s, BufferLimit: 4},
		Reliable: &snapshot.ReliableSpec{
			Timeout: 4 * n, MaxRetries: 5, Jitter: 3, Seed: s + 1, MeasureFrom: fork,
		},
		Adaptive: &snapshot.AdaptiveSpec{Seed: s + 2},
	}
	rates := [4]float64{0.005, 0.01, 0.02, 0.03}
	pts := []*wire.FaultSpec{nil}
	for k := 1; k < points; k++ {
		if k%12 == 11 {
			pts = append(pts, pts[k-7])
			continue
		}
		pts = append(pts, &wire.FaultSpec{N: n, LinkRate: rates[k%4], Seed: int64(mix(s, k) >> 32)})
	}
	return sweepfarm.Spec{Base: base, ForkCycle: fork, Points: pts}
}

type farmSession struct {
	h     *harness
	seed  int64
	tiny  bool
	dir   string // journal root
	spec0 sweepfarm.Spec
	rep0  *sweepfarm.Report
}

func setupFarmWhatif(o *options, tr *tracer) (session, error) {
	return newFarmSession(newHarness(o, tr, 2, serve.Config{}), o.seed, o.tiny, 3)
}

// newFarmSession warms the fleet with a sweep over the first warmPoints
// points of a spec the timed phase never uses.
func newFarmSession(h *harness, seed int64, tiny bool, warmPoints int) (*farmSession, error) {
	dir, err := os.MkdirTemp("", "perfbench-farm-")
	if err != nil {
		h.close()
		return nil, err
	}
	s := &farmSession{h: h, seed: seed, tiny: tiny, dir: dir}
	warm := farmSpec(seed, 1<<15, tiny)
	warm.Points = warm.Points[:warmPoints]
	if _, _, err := s.sweep(warm, "warm"); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return s, nil
}

func (s *farmSession) harness() *harness { return s.h }

func (s *farmSession) close() {
	s.h.close()
	_ = os.RemoveAll(s.dir) // scratch journals only
}

func (s *farmSession) sweep(spec sweepfarm.Spec, name string) (*sweepfarm.Report, *dispatch.Stats, error) {
	return dispatch.Run(spec, dispatch.Config{
		Workers:    s.h.urls(),
		Client:     s.h.client,
		JournalDir: filepath.Join(s.dir, name),
		Inflight:   2,
		Now:        time.Now,
	})
}

// hitSample returns the what-if queries of the first sweep's first
// points.
func (s *farmSession) hitSample() ([]request, error) {
	warm, err := sweepfarm.WarmCheckpoint(s.spec0)
	if err != nil {
		return nil, err
	}
	ck, err := warm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var out []request
	for _, pt := range s.spec0.Points[:4] {
		out = append(out, request{"/v1/whatif", mustJSON(struct {
			Checkpoint []byte    `json:"checkpoint"`
			Fault      *faultDoc `json:"fault,omitempty"`
		}{ck, newFaultDoc(pt)})})
	}
	return out, nil
}

// measure runs whole sweeps until the deadline has passed; at least one.
func (s *farmSession) measure(deadline time.Time) *phase {
	ph := &phase{dispatch: true}
	start := time.Now()
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		spec := farmSpec(s.seed, j, s.tiny)
		ph.attempted += len(spec.Points)
		rep, _, err := s.sweep(spec, fmt.Sprintf("sweep-%03d", j))
		if err != nil {
			ph.fail(fmt.Errorf("sweep %d: %w", j, err))
			break
		}
		ph.ops += len(rep.Points)
		if j == 0 {
			s.spec0, s.rep0 = spec, rep
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// verify replays every fourth point of the first sweep through the
// checkpoint, simulator and journal layers and requires the coordinator's
// merged report to agree with each; the digest covers that report.
func (s *farmSession) verify(lt *layerTimes) (string, error) {
	if s.rep0 == nil {
		return "", fmt.Errorf("no sweep finished")
	}
	if err := replayFarm(lt, s.spec0, s.rep0, 4); err != nil {
		return "", err
	}
	enc, err := s.rep0.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}
