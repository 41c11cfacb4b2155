package routing

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestRestoreSimContinuesIdentically pins the engine-level restore
// contract for both modes, hooks aside: pausing at an arbitrary cycle
// boundary, exporting state, and restoring into a fresh Sim continues
// the run to a final Result deeply equal to the uninterrupted run's,
// with the trace bytes of prefix and continuation concatenating to the
// uninterrupted trace.
func TestRestoreSimContinuesIdentically(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"plain", Params{N: 4, Lambda: 0.30, Warmup: 40, Cycles: 120, Seed: 7}},
		{"vc", Params{N: 4, Lambda: 0.30, Warmup: 40, Cycles: 120, Seed: 7, BufferLimit: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cut := range []int{0, 1, 37, 99, 160} {
				var fullTrace bytes.Buffer
				pf := tc.p
				pf.Trace = &fullTrace
				sf, err := NewSim(pf, Uniform)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sf.Finish()
				if err != nil {
					t.Fatal(err)
				}

				var prefix bytes.Buffer
				pp := tc.p
				pp.Trace = &prefix
				sp, err := NewSim(pp, Uniform)
				if err != nil {
					t.Fatal(err)
				}
				for sp.Cycle() < cut {
					if err := sp.Step(); err != nil {
						t.Fatal(err)
					}
				}
				st := sp.State()

				var rest bytes.Buffer
				pr := tc.p
				pr.Trace = &rest
				sr, err := RestoreSim(pr, Uniform, st)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				got, err := sr.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: restored result diverged:\ngot  %+v\nwant %+v", cut, got, want)
				}
				if joined := prefix.String() + rest.String(); joined != fullTrace.String() {
					t.Fatalf("cut %d: trace bytes diverged", cut)
				}
				if err := got.CheckConservation(); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
		})
	}
}

// TestRestoreSimRejectsCorrupt checks that a tampered state cannot
// silently restore, in both buffer modes: every mutation runs against a
// plain (unbounded FIFO) and a VC (BufferLimit 2) snapshot, so the
// shared checkPacket is exercised on both queue layouts.
func TestRestoreSimRejectsCorrupt(t *testing.T) {
	modes := []struct {
		name string
		p    Params
	}{
		{"plain", Params{N: 3, Lambda: 0.5, Warmup: 10, Cycles: 30, Seed: 3}},
		{"vc", Params{N: 3, Lambda: 0.5, Warmup: 10, Cycles: 30, Seed: 3, BufferLimit: 2}},
	}
	bases := make([]*SimState, len(modes))
	for i, m := range modes {
		s, err := NewSim(m.p, Uniform)
		if err != nil {
			t.Fatal(err)
		}
		for s.Cycle() < 20 {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		bases[i] = s.State()
		if len(bases[i].Packets) == 0 {
			t.Fatalf("%s: test needs a non-empty backlog", m.name)
		}
		// The untampered state still restores.
		if _, err := RestoreSim(m.p, Uniform, bases[i]); err != nil {
			t.Fatalf("%s: pristine state rejected: %v", m.name, err)
		}
	}

	mutate := []struct {
		name string
		fn   func(st *SimState, p Params)
	}{
		{"cycle past end", func(st *SimState, p Params) { st.Cycle = p.Warmup + p.Cycles + 1 }},
		{"queue out of range", func(st *SimState, _ Params) { st.Packets[0].Queue = 1 << 20 }},
		{"dest out of range", func(st *SimState, _ Params) { st.Packets[0].DstRow = 1 << 10 }},
		{"born in the future", func(st *SimState, _ Params) { st.Packets[0].Born = st.Cycle + 5 }},
		{"vc mismatch", func(st *SimState, _ Params) { st.Packets[0].VC = (st.Packets[0].VC + 1) % numVC }},
		{"hops past int32", func(st *SimState, _ Params) { st.Packets[0].Hops = math.MaxInt32 + 1 }},
		{"detours past int16", func(st *SimState, _ Params) { st.Packets[0].Detours = MaxDetours + 1 }},
		{"counter drift", func(st *SimState, _ Params) { st.Counters.TotalInjected += 3 }},
		{"derived field set", func(st *SimState, _ Params) { st.Counters.Backlog = 1 }},
		{"wrong nodes", func(st *SimState, _ Params) { st.Counters.Nodes++ }},
		{"crossings without modules", func(st *SimState, _ Params) { st.Crossings = 1000 }},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			for i, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					base := bases[i]
					st := *base
					st.Packets = append([]PacketState(nil), base.Packets...)
					m.fn(&st, mode.p)
					if _, err := RestoreSim(mode.p, Uniform, &st); err == nil {
						t.Fatal("corrupt state restored without error")
					}
				})
			}
		})
	}
}
