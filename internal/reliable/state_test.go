package reliable

import (
	"math"
	"sort"
	"testing"

	"bfvlsi/internal/faults"
	"bfvlsi/internal/routing"
)

// TestRestoreRejects corrupts a live mid-run state one field at a time:
// every corruption must fail RestoreState, and the pristine state must
// restore and export unchanged.
func TestRestoreRejects(t *testing.T) {
	plan := faults.MustPlan(4)
	if _, err := plan.AddRandomLinkFaults(0.1, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Timeout: 6, MaxRetries: 1, Jitter: 2, Seed: 5}
	tr := MustNew(cfg)
	sim, err := routing.NewSim(routing.Params{
		N: 4, Lambda: 0.3, Cycles: 200, Seed: 1, Faults: plan, TTL: 16, Reliable: tr,
	}, routing.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(100); err != nil {
		t.Fatal(err)
	}
	fresh := tr.State
	if st := fresh(); len(st.Pending) < 2 || len(st.Accepted) < 2 || len(st.Abandoned) < 1 || len(st.Timers) < 2 {
		t.Fatalf("fixture too quiet: %d pending, %d accepted, %d abandoned, %d timers",
			len(st.Pending), len(st.Accepted), len(st.Abandoned), len(st.Timers))
	}
	if err := MustNew(cfg).RestoreState(fresh()); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
	srcOf := func(id uint64) int { return int(id >> seqBits) }
	cases := []struct {
		name string
		mut  func(st *State)
	}{
		{"negative nodes", func(st *State) { st.Nodes = -1 }},
		{"NextSeq short", func(st *State) { st.NextSeq = st.NextSeq[1:] }},
		{"registered off by one", func(st *State) { st.Registered++ }},
		{"more latencies than accepted", func(st *State) {
			for len(st.Latencies) <= len(st.Accepted) {
				st.Latencies = append(st.Latencies, 1)
			}
		}},
		{"flow sequences wrap the sum", func(st *State) {
			st.NextSeq[0] += 1 << 63
			st.NextSeq[1] += 1 << 63
		}},
		{"flow sequence past registered", func(st *State) { st.NextSeq[0] = uint64(st.Registered) + 1 }},
		{"flow sequences short of registered", func(st *State) { st.NextSeq[srcOf(st.Accepted[0])]-- }},
		{"accepted id past the nodes", func(st *State) {
			st.Accepted[len(st.Accepted)-1] = payloadID(st.Nodes, 0)
		}},
		{"accepted id with sequence 0", func(st *State) {
			st.Accepted[0] = uint64(srcOf(st.Accepted[0])) << seqBits
		}},
		{"abandoned id past its flow", func(st *State) {
			last := len(st.Abandoned) - 1
			src := srcOf(st.Abandoned[last])
			st.Abandoned[last] = payloadID(src, st.NextSeq[src])
		}},
		{"id both pending and accepted", func(st *State) {
			st.Accepted[0] = st.Pending[0].ID
			sort.Slice(st.Accepted, func(i, j int) bool { return st.Accepted[i] < st.Accepted[j] })
		}},
		{"id both accepted and abandoned", func(st *State) {
			st.Abandoned[0] = st.Accepted[0]
			sort.Slice(st.Abandoned, func(i, j int) bool { return st.Abandoned[i] < st.Abandoned[j] })
		}},
		{"accepted not ascending", func(st *State) {
			st.Accepted[0], st.Accepted[1] = st.Accepted[1], st.Accepted[0]
		}},
		{"pending not ascending", func(st *State) {
			st.Pending[0], st.Pending[1] = st.Pending[1], st.Pending[0]
		}},
		{"pending destination outside", func(st *State) { st.Pending[0].Dst = st.Nodes }},
		{"pending id of another source", func(st *State) {
			st.Pending[0].Src = (st.Pending[0].Src + 1) % st.Nodes
		}},
		{"pending born negative", func(st *State) { st.Pending[0].Born = -1 }},
		{"pending born past int32", func(st *State) { st.Pending[0].Born = math.MaxInt32 + 1 }},
		{"pending attempts zero", func(st *State) { st.Pending[0].Attempts = 0 }},
		{"pending attempts past int32", func(st *State) { st.Pending[0].Attempts = math.MaxInt32 + 1 }},
		{"timers not ascending", func(st *State) {
			st.Timers[0], st.Timers[1] = st.Timers[1], st.Timers[0]
		}},
		{"timer wakes nothing", func(st *State) { st.Timers[0].IDs = nil }},
	}
	for _, tc := range cases {
		st := fresh()
		tc.mut(st)
		if err := MustNew(cfg).RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted a corrupt state", tc.name)
		}
	}
}
