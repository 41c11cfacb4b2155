package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

// parse runs the flag/validate pipeline the way main does, returning
// the options or the validation error.
func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	set := flag.NewFlagSet("bfsweep", flag.ContinueOnError)
	set.SetOutput(&bytes.Buffer{})
	o := newOptions(set)
	if err := set.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

func TestValidateRejects(t *testing.T) {
	cases := [][]string{
		{"-n", "0"},
		{"-n", "15"},
		{"-lambda", "0"},
		{"-lambda", "1.5"},
		{"-cycles", "0"},
		{"-workers", "0"},
		{"-rates", "0.1,nope"},
		{"-rates", "1.5"},
		{"-faultseeds", "x"},
		{"-fork", "99999"},
		{"-rates", "", "-faultseeds", "", "-control=false"},
	}
	for _, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v: validation accepted", args)
		}
	}
}

func TestFarmSpecShape(t *testing.T) {
	o, err := parse(t, "-n", "3", "-rates", "0.02,0.05", "-faultseeds", "1,2,3", "-reliable", "-adaptive")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec := o.grid.Spec()
	if want := 1 + 2*3; len(spec.Points) != want {
		t.Fatalf("got %d points, want %d", len(spec.Points), want)
	}
	if spec.Points[0] != nil {
		t.Fatalf("first point is not the fault-free control")
	}
	// The table labels each point with its rate and seed: rates
	// outermost, in flag order.
	for i, want := range []struct {
		rate float64
		seed int64
	}{{0.02, 1}, {0.02, 2}, {0.02, 3}, {0.05, 1}, {0.05, 2}, {0.05, 3}} {
		if pt := spec.Points[1+i]; pt.LinkRate != want.rate || pt.Seed != want.seed {
			t.Fatalf("point %d is rate %v seed %d, want rate %v seed %d", 1+i, pt.LinkRate, pt.Seed, want.rate, want.seed)
		}
	}
	if spec.Base.Reliable == nil || spec.Base.Adaptive == nil {
		t.Fatalf("-reliable/-adaptive did not attach the hooks")
	}
	if spec.ForkCycle != o.grid.Warmup {
		t.Fatalf("default fork cycle %d, want end of warmup %d", spec.ForkCycle, o.grid.Warmup)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("assembled spec invalid: %v", err)
	}
}

// TestRunEndToEnd drives the whole command on a small farm, twice over
// the same journal: the second run must replay every point from the
// journal and print the same table.
func TestRunEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.bin")
	o, err := parse(t,
		"-n", "3", "-lambda", "0.3", "-warmup", "20", "-cycles", "60",
		"-buffers", "4", "-ttl", "48", "-rates", "0.03,0.06", "-faultseeds", "1,2",
		"-workers", "3", "-journal", journal)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out1, errBuf bytes.Buffer
	if code := run(o, &out1, &errBuf); code != 0 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out1.String(), "5 points (0 from journal)") {
		t.Fatalf("fresh run header wrong:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "control") {
		t.Fatalf("table lacks the control row:\n%s", out1.String())
	}

	var out2 bytes.Buffer
	if code := run(o, &out2, &errBuf); code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out2.String(), "5 points (5 from journal)") {
		t.Fatalf("resumed run header wrong:\n%s", out2.String())
	}
	table := func(s string) string { return s[strings.Index(s, "\npoint"):] }
	if table(out1.String()) != table(out2.String()) {
		t.Fatalf("journal replay changed the table:\n%s\nvs\n%s", out1.String(), out2.String())
	}
}
