package adaptive

import (
	"bytes"
	"strconv"
	"testing"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Threshold: -1}); err == nil {
		t.Error("negative Threshold accepted")
	}
	if _, err := New(Config{Epoch: -3}); err == nil {
		t.Error("negative Epoch accepted")
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	// A packet's detour counter is 16 bits: a larger budget would let it
	// wrap and grant detours past the budget.
	if _, err := New(Config{MaxDetours: routing.MaxDetours + 1}); err == nil {
		t.Error("MaxDetours past the packet's counter accepted")
	}
	if _, err := New(Config{MaxDetours: routing.MaxDetours}); err != nil {
		t.Errorf("MaxDetours at the packet's counter limit rejected: %v", err)
	}
}

// The circuit breaker: Threshold consecutive failures open a link, a
// success or a live probe re-closes it, and an intervening success resets
// the strike count.
func TestBreakerLifecycle(t *testing.T) {
	r, err := New(Config{Threshold: 3, ProbeInterval: 5, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Reset(3, 8)
	link := 42
	hop := routing.Hop{Node: link / 2, Want: link % 2, Dst: 0, Blocked: -1}
	r.ObserveFailure(link)
	r.ObserveFailure(link)
	r.ObserveSuccess(link) // strike count resets
	r.ObserveFailure(link)
	r.ObserveFailure(link)
	if d := r.Choose(hop); d.Out != hop.Want {
		t.Fatalf("breaker opened before threshold: %+v", d)
	}
	r.ObserveFailure(link)
	if s := r.Stats(); s.Opened != 1 || s.OpenAtEnd != 1 {
		t.Fatalf("breaker did not open at threshold: %+v", s)
	}
	// A success over the condemned link (the breaker does not block the
	// physical link) re-closes it immediately.
	r.ObserveSuccess(link)
	if s := r.Stats(); s.Reclosed != 1 || s.OpenAtEnd != 0 {
		t.Fatalf("success did not re-close the breaker: %+v", s)
	}
	// Open again and re-admit via a live probe instead.
	for i := 0; i < 3; i++ {
		r.ObserveFailure(link)
	}
	probed := false
	for cycle := 0; cycle < 10 && !probed; cycle++ {
		r.BeginCycle(cycle)
		for _, l := range r.Probes() {
			if l != link {
				t.Fatalf("probe for unexpected link %d", l)
			}
			r.ProbeResult(l, true)
			probed = true
		}
	}
	if !probed {
		t.Fatal("open breaker was never probed within its interval")
	}
	if s := r.Stats(); s.OpenAtEnd != 0 || s.ProbesAlive != 1 {
		t.Fatalf("live probe did not re-admit the link: %+v", s)
	}
}

// The epoch map: RejectDest condemns a destination only after a
// dissemination round has published breakers covering every incoming
// link, and a later round withdraws the condemnation once they re-close.
func TestEpochMapRejectDest(t *testing.T) {
	n, rows := 3, 8
	r, err := New(Config{Threshold: 1, Epoch: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.Reset(n, rows)
	r.BeginCycle(0)
	// Destination (row 5, col 1): incoming straight from (5, col 0),
	// incoming cross from (5^1, col 0).
	dst := 1*rows + 5
	straightIn := 0*rows + 5
	crossIn := 0*rows + (5 ^ 1)
	r.ObserveFailure(straightIn * 2)
	r.ObserveFailure(crossIn*2 + 1)
	if r.RejectDest(dst) {
		t.Fatal("destination condemned before any dissemination round")
	}
	r.BeginCycle(10)
	if !r.RejectDest(dst) {
		t.Fatal("destination not condemned after dissemination")
	}
	if r.RejectDest(0*rows + 5) {
		t.Fatal("unrelated destination condemned")
	}
	r.ObserveSuccess(straightIn * 2)
	if !r.RejectDest(dst) {
		t.Fatal("condemnation withdrawn before the next epoch")
	}
	r.BeginCycle(20)
	if r.RejectDest(dst) {
		t.Fatal("condemnation not withdrawn after the link re-closed")
	}
}

// The Choose ladder: plan obeyed on clean links; a condemned planned
// cross forces a straight detour that records the blocked column; the
// marker buys exactly one deliberate dimension-shift on a later clean
// column; the budget caps the shifts.
func TestChooseLadder(t *testing.T) {
	n, rows := 4, 16
	r, err := New(Config{Threshold: 1, MaxDetours: 1, Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.Reset(n, rows)
	node := 1*rows + 3 // (row 3, col 1)
	dst := 3*rows + 9
	clean := r.Choose(routing.Hop{Node: node, Want: 1, Dst: dst, Blocked: -1})
	if clean.Out != 1 || clean.Detour || clean.Blocked != -1 {
		t.Fatalf("clean planned cross not obeyed: %+v", clean)
	}
	r.ObserveFailure(node*2 + 1) // condemn the cross (threshold 1)
	forced := r.Choose(routing.Hop{Node: node, Want: 1, Dst: dst, Blocked: -1})
	if forced.Out != 0 || !forced.Detour || forced.Deliberate || forced.Blocked != 1 {
		t.Fatalf("condemned cross did not force a marked straight detour: %+v", forced)
	}
	// At a later column with budget left, the marker buys a deliberate
	// shift and is consumed.
	later := 2*rows + 3
	shift := r.Choose(routing.Hop{Node: later, Want: 0, Dst: dst, Detours: 0, Blocked: 1})
	if shift.Out != 1 || !shift.Deliberate || shift.Blocked != -1 {
		t.Fatalf("blocked marker did not buy a dimension-shift: %+v", shift)
	}
	// Budget spent: no further shifts.
	spent := r.Choose(routing.Hop{Node: later, Want: 0, Dst: dst, Detours: 1, Blocked: 1})
	if spent.Out != 0 || spent.Deliberate {
		t.Fatalf("detour budget not enforced: %+v", spent)
	}
	// Both outputs condemned: wait on the plan.
	r.ObserveFailure(node * 2)
	wait := r.Choose(routing.Hop{Node: node, Want: 1, Dst: dst, Blocked: -1})
	if wait.Out != 1 || wait.Detour {
		t.Fatalf("fully condemned switch did not wait on the plan: %+v", wait)
	}
}

// The PR's golden acceptance gate: with detection enabled and zero
// faults, both simulators must produce runs packet-for-packet identical
// to the baseline - same Result, same trace bytes.
func TestGoldenZeroFaultIdentity(t *testing.T) {
	for _, buffers := range []int{0, 4} {
		var baseTrace, adaTrace bytes.Buffer
		p := routing.Params{
			N: 5, Lambda: 0.12, Warmup: 80, Cycles: 400, Seed: 7,
			BufferLimit: buffers, Trace: &baseTrace,
		}
		base, err := routing.Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(DefaultConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		q := p
		q.Trace = &adaTrace
		q.Adaptive = rt
		got, err := routing.Simulate(q)
		if err != nil {
			t.Fatal(err)
		}
		if *base != *got {
			t.Errorf("buffers=%d: zero-fault adaptive run diverged:\n%+v\nvs\n%+v", buffers, base, got)
		}
		if !bytes.Equal(baseTrace.Bytes(), adaTrace.Bytes()) {
			t.Errorf("buffers=%d: zero-fault adaptive trace diverged", buffers)
		}
		if s := rt.Stats(); s.Opened != 0 || s.Probes != 0 {
			t.Errorf("buffers=%d: router learned from a fault-free run: %+v", buffers, s)
		}
	}
}

// Experiment E23, the PR's headline: under permanent module-kill the
// adaptive router - alone and stacked with retransmission - recovers
// strictly more goodput than the static Misroute and DropDead policies
// on the row and nucleus packagings, with copy-exact conservation in
// every cell. The naive packaging's modules span whole rows, and at this
// load Misroute already delivers everything deliverable there, so the
// assertion relaxes to "no worse" on that scheme.
func TestE23ModuleKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 sweep is a full 36-cell n=6 comparison")
	}
	n := 6
	schemes, err := faults.StandardSchemes(n)
	if err != nil {
		t.Fatal(err)
	}
	base := routing.Params{N: n, Lambda: 0.06, Warmup: 200, Cycles: 800, Seed: 42}
	rcfg := reliable.Config{Timeout: 8 * n, MaxRetries: 1, MaxTimeout: 32 * n, Seed: 9}
	pts := ModuleKillSweep(base, DefaultConfig(n), rcfg, StandardModes(), schemes, []int{0, 2, 4})
	goodput := map[string]map[string]float64{}
	var sawDetours, sawReroutes, sawDetected, sawOpened bool
	for i := range pts {
		pt := &pts[i]
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		key := pt.Scheme + "/" + strconv.Itoa(pt.Killed)
		if goodput[key] == nil {
			goodput[key] = map[string]float64{}
		}
		goodput[key][pt.Mode] = pt.Goodput
		if pt.Mode == "adaptive" && pt.Killed > 0 {
			sawDetours = sawDetours || pt.Result.Detours > 0
			sawReroutes = sawReroutes || pt.Result.Reroutes > 0
			sawDetected = sawDetected || pt.Result.UnreachableDetected > 0
			sawOpened = sawOpened || pt.Router.Opened > 0
		}
		if pt.Killed == 0 && (pt.Result.Detours != 0 || pt.Result.Reroutes != 0 || pt.Result.UnreachableDetected != 0) {
			t.Errorf("%s %s: zero-kill cell deviated from the plan: %+v", pt.Mode, key, pt.Result)
		}
	}
	for key, g := range goodput {
		if len(g) != 4 {
			t.Fatalf("cell %s has %d modes", key, len(g))
		}
	}
	// Zero-kill cells: all four modes identical (the golden identity seen
	// through the sweep).
	for _, sc := range []string{"row", "nucleus", "naive"} {
		g := goodput[sc+"/0"]
		for mode, v := range g {
			if v != g["drop"] {
				t.Errorf("scheme %s kills 0: mode %s goodput %g != drop %g", sc, mode, v, g["drop"])
			}
		}
	}
	for _, sc := range []string{"row", "nucleus"} {
		for _, k := range []string{"2", "4"} {
			g := goodput[sc+"/"+k]
			for _, ada := range []string{"adaptive", "adaptive+retx"} {
				for _, static := range []string{"misroute", "drop"} {
					if g[ada] <= g[static] {
						t.Errorf("scheme %s kills %s: %s goodput %g not strictly above %s %g",
							sc, k, ada, g[ada], static, g[static])
					}
				}
			}
		}
	}
	for _, k := range []string{"2", "4"} {
		g := goodput["naive/"+k]
		if g["adaptive"] < g["misroute"] {
			t.Errorf("naive kills %s: adaptive goodput %g below misroute %g", k, g["adaptive"], g["misroute"])
		}
	}
	if !sawDetours || !sawReroutes || !sawOpened {
		t.Errorf("adaptive machinery idle under module-kill: detours=%v reroutes=%v opened=%v",
			sawDetours, sawReroutes, sawOpened)
	}
	if !sawDetected {
		t.Error("epoch map never rejected a learned-dead destination")
	}
}

// The link-fault sweep: zero-rate cells reproduce the fault-free baseline
// in every mode, all cells conserve, and the adaptive cells learn.
func TestSweepZeroRateBaseline(t *testing.T) {
	base := routing.Params{N: 4, Lambda: 0.1, Warmup: 50, Cycles: 300, Seed: 3}
	rcfg := reliable.Config{Timeout: 30, MaxRetries: 1, Seed: 5}
	pts := Sweep(base, DefaultConfig(4), rcfg, StandardModes(), []float64{0, 0.04}, 0)
	var zero []float64
	for i := range pts {
		pt := &pts[i]
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		if pt.Rate == 0 {
			zero = append(zero, pt.Goodput)
		} else if pt.Mode == "adaptive" && pt.Router.Opened == 0 {
			t.Errorf("mode %s rate %g: no breaker ever opened over %d dead links",
				pt.Mode, pt.Rate, pt.DeadLinks)
		}
	}
	for _, g := range zero {
		if g != zero[0] {
			t.Errorf("zero-rate cells disagree: %v", zero)
		}
	}
}

// The virtual-channel simulator honors the same adaptive semantics:
// module-kill cells conserve exactly and the detour machinery engages
// under finite buffers and dateline VCs.
func TestVCModuleKillConservation(t *testing.T) {
	n := 5
	schemes, err := faults.StandardSchemes(n)
	if err != nil {
		t.Fatal(err)
	}
	base := routing.Params{N: n, Lambda: 0.08, Warmup: 100, Cycles: 400, Seed: 21, BufferLimit: 3}
	rcfg := reliable.Config{Timeout: 8 * n, MaxRetries: 1, Seed: 9}
	pts := ModuleKillSweep(base, DefaultConfig(n), rcfg, StandardModes(), schemes[:2], []int{0, 2})
	sawDetours := false
	for i := range pts {
		pt := &pts[i]
		if pt.Err != nil {
			t.Fatal(pt.Err)
		}
		if pt.Mode == "adaptive" && pt.Killed > 0 && pt.Result.Detours > 0 {
			sawDetours = true
		}
	}
	if !sawDetours {
		t.Error("no adaptive detours under VC module-kill")
	}
}
