package routing

import (
	"testing"
)

// stubFaults is a hand-rolled FaultModel for targeted scenarios: explicit
// dead nodes and dead directed links, optionally repaired at a fixed
// cycle. It derives link deaths from endpoint node deaths the same way
// real implementations must.
type stubFaults struct {
	n, rows     int
	nodes       map[int]bool
	links       map[[2]int]bool
	repairCycle int // faults vanish at this cycle; 0 = permanent
	cycle       int
}

func newStubFaults(n int) *stubFaults {
	return &stubFaults{
		n: n, rows: 1 << uint(n),
		nodes: make(map[int]bool),
		links: make(map[[2]int]bool),
	}
}

func (s *stubFaults) BeginCycle(cycle int) { s.cycle = cycle }

func (s *stubFaults) active() bool {
	return s.repairCycle == 0 || s.cycle < s.repairCycle
}

func (s *stubFaults) NodeDown(node int) bool {
	return s.active() && s.nodes[node]
}

func (s *stubFaults) LinkDown(node, out int) bool {
	if !s.active() {
		return false
	}
	if s.links[[2]int{node, out}] || s.nodes[node] {
		return true
	}
	col, row := node/s.rows, node%s.rows
	nr := row
	if out == 1 {
		nr = row ^ (1 << uint(col))
	}
	return s.nodes[((col+1)%s.n)*s.rows+nr]
}

// An attached fault model with zero faults must not change the run at all:
// same seed, same Result, in both the unbounded and the finite-buffer
// simulator.
func TestZeroFaultModelMatchesBaseline(t *testing.T) {
	for _, buffers := range []int{0, 4} {
		p := Params{N: 4, Lambda: 0.15, Warmup: 60, Cycles: 400, Seed: 17, BufferLimit: buffers}
		base, err := Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{Misroute, DropDead} {
			q := p
			q.Faults = newStubFaults(4)
			q.Policy = pol
			wrapped, err := Simulate(q)
			if err != nil {
				t.Fatal(err)
			}
			if *base != *wrapped {
				t.Errorf("buffers=%d policy=%v: zero-fault run diverged:\n%+v\nvs\n%+v",
					buffers, pol, base, wrapped)
			}
		}
	}
}

// A transient link fault with misrouting loses nothing: every packet is
// eventually delivered (or still queued), none dropped, and the fallback
// path was actually exercised.
func TestMisrouteTransientFaultRecovers(t *testing.T) {
	n := 4
	fm := newStubFaults(n)
	fm.links[[2]int{1 << uint(n), 1}] = true // cross link of (row 0, col 1)
	fm.repairCycle = 150
	r, err := Simulate(Params{
		N: n, Lambda: 0.05, Warmup: 0, Cycles: 700, Seed: 5,
		Faults: fm, Policy: Misroute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Error(err)
	}
	if r.Dropped != 0 || r.Unreachable != 0 {
		t.Errorf("transient fault lost packets: dropped %d, unreachable %d", r.Dropped, r.Unreachable)
	}
	if r.Misroutes == 0 {
		t.Error("no misroutes recorded around the dead link")
	}
	if r.Backlog > 20 {
		t.Errorf("backlog %d did not drain after the repair", r.Backlog)
	}
}

// The DropDead baseline discards packets at the dead link instead.
func TestDropDeadPolicyDrops(t *testing.T) {
	n := 4
	fm := newStubFaults(n)
	fm.links[[2]int{1 << uint(n), 1}] = true
	r, err := Simulate(Params{
		N: n, Lambda: 0.05, Warmup: 0, Cycles: 700, Seed: 5,
		Faults: fm, Policy: DropDead,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Error(err)
	}
	if r.Dropped == 0 {
		t.Error("DropDead at a permanently dead link dropped nothing")
	}
	if r.Misroutes != 0 {
		t.Errorf("DropDead recorded %d misroutes", r.Misroutes)
	}
}

// Killing every cross link of column 0 makes bit 0 unfixable: packets that
// need it wander until their TTL expires. Accounting must stay exact.
func TestTTLDropsTrappedPackets(t *testing.T) {
	n := 3
	rows := 1 << uint(n)
	fm := newStubFaults(n)
	for row := 0; row < rows; row++ {
		fm.links[[2]int{row, 1}] = true // column 0 node ids are 0..rows-1
	}
	r, err := Simulate(Params{
		N: n, Lambda: 0.08, Warmup: 0, Cycles: 600, Seed: 7,
		Faults: fm, Policy: Misroute, TTL: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Error(err)
	}
	if r.Dropped == 0 {
		t.Error("trapped packets were never TTL-dropped")
	}
	if r.Delivered == 0 {
		t.Error("packets not needing bit 0 should still be delivered")
	}
	// Without a TTL the same run must trap the packets in Backlog
	// instead (nothing lost either way).
	noTTL, err := Simulate(Params{
		N: n, Lambda: 0.08, Warmup: 0, Cycles: 600, Seed: 7,
		Faults: fm, Policy: Misroute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := noTTL.CheckConservation(); err != nil {
		t.Error(err)
	}
	if noTTL.Dropped != 0 {
		t.Errorf("TTL disabled but %d packets dropped", noTTL.Dropped)
	}
	if noTTL.Backlog <= r.Backlog {
		t.Errorf("TTL-free backlog %d not larger than TTL backlog %d", noTTL.Backlog, r.Backlog)
	}
}

// A dead node neither injects nor receives: traffic addressed to it is
// refused as Unreachable at injection time.
func TestNodeFaultUnreachable(t *testing.T) {
	n := 3
	fm := newStubFaults(n)
	dead := 2<<uint(n) + 3 // (row 3, col 2)
	fm.nodes[dead] = true
	r, err := Simulate(Params{
		N: n, Lambda: 0.1, Warmup: 0, Cycles: 800, Seed: 11,
		Faults: fm, Policy: Misroute, TTL: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Error(err)
	}
	if r.Unreachable == 0 {
		t.Error("uniform traffic to a dead node produced no Unreachable count")
	}
	if r.Delivered == 0 {
		t.Error("the rest of the network should still deliver")
	}
}

// The finite-buffer (virtual-channel) simulator honors the same fault
// semantics: exact accounting under node faults, link faults, and TTL.
func TestVCFaultConservation(t *testing.T) {
	n := 4
	fm := newStubFaults(n)
	fm.nodes[3] = true                         // (row 3, col 0)
	fm.links[[2]int{2<<uint(n) + 5, 0}] = true // straight link of (row 5, col 2)
	r, err := Simulate(Params{
		N: n, Lambda: 0.2, Warmup: 0, Cycles: 500, Seed: 13, BufferLimit: 3,
		Faults: fm, Policy: Misroute, TTL: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Error(err)
	}
	if r.Unreachable == 0 {
		t.Error("no unreachable packets despite a dead node")
	}
	if r.Stalls == 0 {
		t.Error("no stalls recorded at the dead link")
	}
}
